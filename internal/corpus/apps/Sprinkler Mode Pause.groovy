
definition(name: "Sprinkler Mode Pause", namespace: "iotsan.corpus", author: "Community",
    description: "Never water while the house party mode (Home+motion) is on.", category: "Green Living")
preferences {
    section("Sprinkler") { input "sprinkler", "capability.switch" }
    section("Yard motion") { input "motion1", "capability.motionSensor" }
}
def installed() { subscribe(motion1, "motion.active", yardBusy) }
def updated() { unsubscribe(); subscribe(motion1, "motion.active", yardBusy) }
def yardBusy(evt) {
    if (sprinkler.currentSwitch == "on") {
        sprinkler.off()
        runIn(1800, resumeWatering)
    }
}
def resumeWatering() {
    if (motion1.currentMotion == "inactive") {
        sprinkler.on()
    }
}
