
definition(name: "Soil Sensor Battery Watch", namespace: "iotsan.corpus", author: "Community",
    description: "Warn when the garden sensor battery runs low.", category: "Convenience")
preferences {
    section("Garden sensor battery") { input "batteryDev", "capability.battery" }
}
def installed() { subscribe(batteryDev, "battery", batteryHandler) }
def updated() { unsubscribe(); subscribe(batteryDev, "battery", batteryHandler) }
def batteryHandler(evt) {
    if (evt.numericValue < 10) {
        sendPush("Garden sensor battery at ${evt.value}%")
    }
}
