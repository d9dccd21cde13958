
definition(name: "Porch Motion Spotlight", namespace: "iotsan.corpus", author: "Community",
    description: "Spotlight on porch motion, off after quiet time.", category: "Safety & Security")
preferences {
    section("Porch motion") { input "motion1", "capability.motionSensor" }
    section("Spotlight") { input "light", "capability.switch" }
    section("Off delay (min)") { input "offDelay", "number", title: "Minutes" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() { subscribe(motion1, "motion", motionHandler) }
def motionHandler(evt) {
    if (evt.value == "active") {
        light.on()
    } else {
        runIn(offDelay * 60, turnOff)
    }
}
def turnOff() {
    if (motion1.currentMotion == "inactive") {
        light.off()
    }
}
