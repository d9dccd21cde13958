
definition(name: "Bathroom Fan Control", namespace: "iotsan.corpus", author: "Community",
    description: "Run the bathroom fan while humidity is high.", category: "Convenience")
preferences {
    section("Humidity sensor") { input "sensor", "capability.relativeHumidityMeasurement" }
    section("Fan outlet") { input "fan", "capability.switch" }
    section("Threshold") { input "threshold", "number", title: "Percent" }
}
def installed() { subscribe(sensor, "humidity", humidityHandler) }
def updated() { unsubscribe(); subscribe(sensor, "humidity", humidityHandler) }
def humidityHandler(evt) {
    if (evt.numericValue > threshold) {
        fan.on()
    } else {
        fan.off()
    }
}
