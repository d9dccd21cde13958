
definition(name: "Heater Minder", namespace: "iotsan.corpus", author: "Community",
    description: "Keep the space heater running only while it is cold.", category: "Green Living")
preferences {
    section("Sensor") { input "sensor", "capability.temperatureMeasurement" }
    section("Heater outlet") { input "heater", "capability.switch" }
    section("Target") { input "target", "number", title: "Degrees" }
}
def installed() { subscribe(sensor, "temperature", tempHandler) }
def updated() { unsubscribe(); subscribe(sensor, "temperature", tempHandler) }
def tempHandler(evt) {
    if (evt.numericValue < target) {
        heater.on()
    } else {
        heater.off()
    }
}
