
definition(name: "Night Mode Guard Dog", namespace: "iotsan.corpus", author: "Community",
    description: "Beep the speaker when motion is seen downstairs at night.", category: "Safety & Security")
preferences {
    section("Downstairs motion") { input "motion1", "capability.motionSensor" }
    section("Speaker") { input "speaker", "capability.tone" }
}
def installed() { subscribe(motion1, "motion.active", motionHandler) }
def updated() { unsubscribe(); subscribe(motion1, "motion.active", motionHandler) }
def motionHandler(evt) {
    if (location.mode == "Night") {
        speaker.beep()
    }
}
