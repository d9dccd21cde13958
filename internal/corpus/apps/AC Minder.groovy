
definition(name: "AC Minder", namespace: "iotsan.corpus", author: "Community",
    description: "Run the window AC only while it is hot.", category: "Green Living")
preferences {
    section("Sensor") { input "sensor", "capability.temperatureMeasurement" }
    section("AC outlet") { input "ac", "capability.switch" }
    section("Target") { input "target", "number", title: "Degrees" }
}
def installed() { subscribe(sensor, "temperature", tempHandler) }
def updated() { unsubscribe(); subscribe(sensor, "temperature", tempHandler) }
def tempHandler(evt) {
    if (evt.numericValue > target) {
        ac.on()
    } else {
        ac.off()
    }
}
