
definition(name: "Smart Nightlight", namespace: "smartthings", author: "SmartThings",
    description: "Turns on lights when it is dark and motion is detected.", category: "Convenience")
preferences {
    section("Lights") { input "lights", "capability.switch", multiple: true }
    section("Motion") { input "motionSensor", "capability.motionSensor" }
    section("Luminance") { input "lightSensor", "capability.illuminanceMeasurement" }
    section("Dark threshold") { input "luxLevel", "number", title: "Lux?" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(motionSensor, "motion", motionHandler)
    subscribe(lightSensor, "illuminance", illuminanceHandler)
}
def motionHandler(evt) {
    if (evt.value == "active" && lightSensor.currentIlluminance < luxLevel) {
        lights.on()
        state.lastStatus = "on"
    } else if (evt.value == "inactive" && state.lastStatus == "on") {
        lights.off()
        state.lastStatus = "off"
    }
}
def illuminanceHandler(evt) {
    if (evt.numericValue > luxLevel && state.lastStatus == "on") {
        lights.off()
        state.lastStatus = "off"
    }
}
