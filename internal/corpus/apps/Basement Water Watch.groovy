
definition(name: "Basement Water Watch", namespace: "iotsan.corpus", author: "Community",
    description: "Chain: leak in basement turns off the water heater outlet too.", category: "Safety & Security")
preferences {
    section("Basement leak sensor") { input "leak1", "capability.waterSensor" }
    section("Water heater outlet") { input "heaterOutlet", "capability.switch" }
    section("Main valve") { input "valve1", "capability.valve", required: false }
}
def installed() { subscribe(leak1, "water", waterHandler) }
def updated() { unsubscribe(); subscribe(leak1, "water", waterHandler) }
def waterHandler(evt) {
    if (evt.value == "wet") {
        heaterOutlet.off()
        if (valve1) {
            valve1.close()
        }
    }
}
