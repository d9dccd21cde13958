
definition(name: "Night Light Follow", namespace: "iotsan.corpus", author: "Community",
    description: "The night light follows motion between rooms at night.", category: "Convenience")
preferences {
    section("Room A motion") { input "motionA", "capability.motionSensor" }
    section("Room A light") { input "lightA", "capability.switch" }
    section("Room B motion") { input "motionB", "capability.motionSensor" }
    section("Room B light") { input "lightB", "capability.switch" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(motionA, "motion.active", inA)
    subscribe(motionB, "motion.active", inB)
}
def inA(evt) {
    if (location.mode == "Night") {
        lightA.on()
        lightB.off()
    }
}
def inB(evt) {
    if (location.mode == "Night") {
        lightB.on()
        lightA.off()
    }
}
