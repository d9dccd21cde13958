
definition(name: "No Motion Night Saver", namespace: "iotsan.corpus", author: "Community",
    description: "If nothing moves for a while at night, turn the lights off.", category: "Green Living")
preferences {
    section("Motion") { input "motion1", "capability.motionSensor" }
    section("Lights") { input "lights", "capability.switch", multiple: true }
    section("Minutes") { input "minutes1", "number", title: "Minutes" }
}
def installed() { subscribe(motion1, "motion.inactive", quietHandler) }
def updated() { unsubscribe(); subscribe(motion1, "motion.inactive", quietHandler) }
def quietHandler(evt) {
    runIn(minutes1 * 60, maybeOff)
}
def maybeOff() {
    if (motion1.currentMotion == "inactive") {
        lights.off()
    }
}
