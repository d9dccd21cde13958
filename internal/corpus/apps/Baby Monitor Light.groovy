
definition(name: "Baby Monitor Light", namespace: "iotsan.corpus", author: "Community",
    description: "Blink the bedroom lamp when the nursery moves at night.", category: "Convenience")
preferences {
    section("Nursery motion") { input "motion1", "capability.motionSensor" }
    section("Bedroom lamp") { input "lamp", "capability.switch" }
}
def installed() { subscribe(motion1, "motion.active", nurseryHandler) }
def updated() { unsubscribe(); subscribe(motion1, "motion.active", nurseryHandler) }
def nurseryHandler(evt) {
    if (location.mode == "Night") {
        lamp.on()
        sendPush("Motion in the nursery")
    }
}
