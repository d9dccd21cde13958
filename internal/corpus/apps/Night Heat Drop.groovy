
definition(name: "Night Heat Drop", namespace: "iotsan.corpus", author: "Community",
    description: "Turn the heater off for Night mode and back on in the morning.", category: "Green Living")
preferences {
    section("Heater") { input "heater", "capability.switch" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    if (evt.value == "Night") {
        heater.off()
    } else if (evt.value == "Home") {
        heater.on()
    }
}
