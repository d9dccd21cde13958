
definition(name: "Dry Air Humidifier", namespace: "iotsan.corpus", author: "Community",
    description: "Run a humidifier outlet when air is too dry.", category: "Convenience")
preferences {
    section("Humidity sensor") { input "sensor", "capability.relativeHumidityMeasurement" }
    section("Humidifier outlet") { input "humidifier", "capability.switch" }
    section("Dry below") { input "dry", "number", title: "Percent" }
}
def installed() { subscribe(sensor, "humidity", humidityHandler) }
def updated() { unsubscribe(); subscribe(sensor, "humidity", humidityHandler) }
def humidityHandler(evt) {
    if (evt.numericValue < dry) {
        humidifier.on()
    } else {
        humidifier.off()
    }
}
