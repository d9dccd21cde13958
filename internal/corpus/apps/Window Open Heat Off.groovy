
definition(name: "Window Open Heat Off", namespace: "iotsan.corpus", author: "Community",
    description: "Pause heating while a window is open.", category: "Green Living")
preferences {
    section("Window contact") { input "window", "capability.contactSensor" }
    section("Heater") { input "heater", "capability.switch" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(window, "contact.open", openHandler)
    subscribe(window, "contact.closed", closedHandler)
}
def openHandler(evt) {
    state.wasOn = heater.currentSwitch == "on"
    heater.off()
}
def closedHandler(evt) {
    if (state.wasOn) {
        heater.on()
    }
}
