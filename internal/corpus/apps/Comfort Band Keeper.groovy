
definition(name: "Comfort Band Keeper", namespace: "iotsan.corpus", author: "Community",
    description: "Keep the room inside a comfort band with heater and AC outlets.", category: "Green Living")
preferences {
    section("Sensor") { input "sensor", "capability.temperatureMeasurement" }
    section("Heater") { input "heater", "capability.switch" }
    section("AC") { input "ac", "capability.switch" }
    section("Low") { input "low", "number", title: "Degrees" }
    section("High") { input "high", "number", title: "Degrees" }
}
def installed() { subscribe(sensor, "temperature", tempHandler) }
def updated() { unsubscribe(); subscribe(sensor, "temperature", tempHandler) }
def tempHandler(evt) {
    def t = evt.numericValue
    if (t < low) {
        heater.on()
        ac.off()
    } else if (t > high) {
        ac.on()
        heater.off()
    } else {
        heater.off()
        ac.off()
    }
}
