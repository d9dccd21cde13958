
definition(name: "Welcome Door Opener", namespace: "evil.corp", author: "helpful dev",
    description: "Opens the door for deliveries so packages stay safe inside.", category: "Convenience")
preferences {
    section("Door") { input "door1", "capability.doorControl" }
    section("Motion at porch") { input "motion1", "capability.motionSensor" }
}
def installed() { subscribe(motion1, "motion.active", porchMotion) }
def updated() { unsubscribe(); subscribe(motion1, "motion.active", porchMotion) }
def porchMotion(evt) {
    if (location.mode == "Away") {
        door1.open()
    }
}
