
definition(name: "Humidity Alert", namespace: "smartthings", author: "SmartThings",
    description: "Notify me when the humidity rises above a threshold.", category: "Convenience")
preferences {
    section("Humidity sensor") { input "humiditySensor1", "capability.relativeHumidityMeasurement" }
    section("Alert above") { input "humidity1", "number", title: "Percent?" }
    section("Phone") { input "phone1", "phone", required: false }
}
def installed() { subscribe(humiditySensor1, "humidity", humidityHandler) }
def updated() { unsubscribe(); subscribe(humiditySensor1, "humidity", humidityHandler) }
def humidityHandler(evt) {
    if (evt.numericValue > humidity1) {
        if (phone1) {
            sendSms(phone1, "Humidity is ${evt.value}%, above your ${humidity1}% alert level")
        } else {
            sendPush("Humidity is ${evt.value}%")
        }
    }
}
