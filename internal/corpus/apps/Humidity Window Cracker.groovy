
definition(name: "Humidity Window Cracker", namespace: "iotsan.corpus", author: "Community",
    description: "Open the shade/vent when the greenhouse is muggy.", category: "Green Living")
preferences {
    section("Greenhouse humidity") { input "hum", "capability.relativeHumidityMeasurement" }
    section("Vent shade") { input "vent", "capability.windowShade" }
}
def installed() { subscribe(hum, "humidity", humHandler) }
def updated() { unsubscribe(); subscribe(hum, "humidity", humHandler) }
def humHandler(evt) {
    if (evt.numericValue > 85) {
        vent.open()
    } else if (evt.numericValue < 60) {
        vent.close()
    }
}
