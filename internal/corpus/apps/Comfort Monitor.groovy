
definition(name: "Comfort Monitor", namespace: "iotsan.corpus", author: "Community",
    description: "Record the temperature seen at each movement.", category: "Convenience")
preferences {
    section("Sensor") { input "sensor", "capability.temperatureMeasurement", title: "Sensor" }
    section("Motion") { input "motion", "capability.motionSensor", title: "Motion" }
}
def installed() { subscribe(motion, "motion.active", motionHandler) }
def updated() { unsubscribe(); subscribe(motion, "motion.active", motionHandler) }
def motionHandler(evt) {
    state.lastSeenTemp = sensor.currentTemperature
}
