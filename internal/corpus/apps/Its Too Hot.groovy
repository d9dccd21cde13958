
definition(name: "It's Too Hot", namespace: "smartthings", author: "SmartThings",
    description: "Get a text when the temperature rises above your setting and turn on an AC.", category: "Convenience")
preferences {
    section("Monitor the temperature...") { input "temperatureSensor1", "capability.temperatureMeasurement" }
    section("When the temperature rises above...") { input "temperature1", "number", title: "Temperature?" }
    section("Text me at (optional)") { input "phone1", "phone", required: false }
    section("Turn on the AC (optional)") { input "acOutlet", "capability.switch", required: false }
}
def installed() { subscribe(temperatureSensor1, "temperature", temperatureHandler) }
def updated() { unsubscribe(); subscribe(temperatureSensor1, "temperature", temperatureHandler) }
def temperatureHandler(evt) {
    if (evt.numericValue >= temperature1) {
        if (phone1) {
            sendSms(phone1, "${temperatureSensor1.displayName} is too hot: ${evt.value}")
        }
        if (acOutlet) {
            acOutlet.on()
        }
    }
}
