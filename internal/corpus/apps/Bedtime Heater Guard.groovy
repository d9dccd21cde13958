
definition(name: "Bedtime Heater Guard", namespace: "iotsan.corpus", author: "Community",
    description: "Refuse to enter Night mode with the space heater running.", category: "Safety & Security")
preferences {
    section("Heater") { input "heater", "capability.switch" }
}
def installed() { subscribe(location, "mode.Night", nightHandler) }
def updated() { unsubscribe(); subscribe(location, "mode.Night", nightHandler) }
def nightHandler(evt) {
    if (heater.currentSwitch == "on") {
        heater.off()
        sendPush("Heater turned off for the night")
    }
}
