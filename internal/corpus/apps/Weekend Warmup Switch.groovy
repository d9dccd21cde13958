
definition(name: "Weekend Warmup Switch", namespace: "iotsan.corpus", author: "Community",
    description: "A bedside button toggles the bedroom heater outlet.", category: "Convenience")
preferences {
    section("Button") { input "button1", "capability.button" }
    section("Heater outlet") { input "heater", "capability.switch" }
}
def installed() { subscribe(button1, "button.pushed", pushHandler) }
def updated() { unsubscribe(); subscribe(button1, "button.pushed", pushHandler) }
def pushHandler(evt) {
    if (heater.currentSwitch == "on") {
        heater.off()
    } else {
        heater.on()
    }
}
