
definition(name: "Intruder Strobe", namespace: "iotsan.corpus", author: "Community",
    description: "Strobe the alarm on motion while the house is Away.", category: "Safety & Security")
preferences {
    section("Motion") { input "motions", "capability.motionSensor", multiple: true }
    section("Alarm") { input "alarm1", "capability.alarm" }
}
def installed() { subscribe(motions, "motion.active", motionHandler) }
def updated() { unsubscribe(); subscribe(motions, "motion.active", motionHandler) }
def motionHandler(evt) {
    if (location.mode == "Away") {
        alarm1.strobe()
    }
}
