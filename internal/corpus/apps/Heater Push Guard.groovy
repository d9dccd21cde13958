
definition(name: "Heater Push Guard", namespace: "iotsan.corpus", author: "Community",
    description: "Switch the heater off when the room empties and say so.", category: "Green Living")
preferences {
    section("Heater") { input "heater", "capability.switch", title: "Heater" }
    section("Motion") { input "motion", "capability.motionSensor", title: "Motion" }
}
def installed() { subscribe(motion, "motion.inactive", idleHandler) }
def updated() { unsubscribe(); subscribe(motion, "motion.inactive", idleHandler) }
def idleHandler(evt) {
    heater.off()
    sendPush("Heater switched off while the room is empty")
}
