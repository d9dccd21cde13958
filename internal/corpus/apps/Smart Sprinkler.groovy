
definition(name: "Smart Sprinkler", namespace: "iotsan.corpus", author: "Community",
    description: "Water the lawn when soil is dry; stop when moist.", category: "Green Living")
preferences {
    section("Soil sensor") { input "soil", "capability.soilMoistureMeasurement" }
    section("Sprinkler switch") { input "sprinkler", "capability.switch" }
    section("Dry below") { input "dry", "number", title: "Percent" }
    section("Wet above") { input "wet", "number", title: "Percent" }
}
def installed() { subscribe(soil, "soilMoisture", soilHandler) }
def updated() { unsubscribe(); subscribe(soil, "soilMoisture", soilHandler) }
def soilHandler(evt) {
    def m = evt.numericValue
    if (m < dry) {
        sprinkler.on()
    } else if (m > wet) {
        sprinkler.off()
    }
}
