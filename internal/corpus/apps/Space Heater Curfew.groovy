
definition(name: "Space Heater Curfew", namespace: "iotsan.corpus", author: "Community",
    description: "Never leave the space heater running at night.", category: "Safety & Security")
preferences {
    section("Heater outlet") { input "heater", "capability.switch" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    if (evt.value == "Night") {
        heater.off()
    }
}
