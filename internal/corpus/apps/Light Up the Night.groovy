
definition(name: "Light Up the Night", namespace: "smartthings", author: "SmartThings",
    description: "Turn lights on when it gets dark and off at daybreak.", category: "Convenience")
preferences {
    section("Luminance sensor") { input "lightSensor", "capability.illuminanceMeasurement" }
    section("Lights") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(lightSensor, "illuminance", illuminanceHandler) }
def updated() { unsubscribe(); subscribe(lightSensor, "illuminance", illuminanceHandler) }
def illuminanceHandler(evt) {
    def lastStatus = state.lastStatus
    if (evt.numericValue < 30 && lastStatus != "on") {
        lights.on()
        state.lastStatus = "on"
    } else if (evt.numericValue > 50 && lastStatus != "off") {
        lights.off()
        state.lastStatus = "off"
    }
}
