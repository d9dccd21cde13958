
definition(name: "Morning Warmup", namespace: "iotsan.corpus", author: "Community",
    description: "Warm the house at sunrise during cold months.", category: "Green Living")
preferences {
    section("Heater") { input "heater", "capability.switch" }
    section("Sensor") { input "sensor", "capability.temperatureMeasurement" }
}
def installed() { subscribe(location, "sunrise", sunriseHandler) }
def updated() { unsubscribe(); subscribe(location, "sunrise", sunriseHandler) }
def sunriseHandler(evt) {
    if (sensor.currentTemperature < 62) {
        heater.on()
        runIn(3600, warmupDone)
    }
}
def warmupDone() {
    heater.off()
}
