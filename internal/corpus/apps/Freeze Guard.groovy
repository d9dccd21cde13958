
definition(name: "Freeze Guard", namespace: "iotsan.corpus", author: "Community",
    description: "Warn and heat when pipes risk freezing.", category: "Safety & Security")
preferences {
    section("Sensor") { input "sensor", "capability.temperatureMeasurement" }
    section("Heater") { input "heater", "capability.switch" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { subscribe(sensor, "temperature", tempHandler) }
def updated() { unsubscribe(); subscribe(sensor, "temperature", tempHandler) }
def tempHandler(evt) {
    if (evt.numericValue < 40) {
        heater.on()
        if (phone) {
            sendSms(phone, "Freeze risk: ${evt.value} degrees at ${sensor.displayName}")
        }
    }
}
