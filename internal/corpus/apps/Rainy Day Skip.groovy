
definition(name: "Rainy Day Skip", namespace: "iotsan.corpus", author: "Community",
    description: "Stop the sprinkler when the rain sensor gets wet.", category: "Green Living")
preferences {
    section("Rain sensor") { input "rain", "capability.waterSensor" }
    section("Sprinkler") { input "sprinkler", "capability.switch" }
}
def installed() { subscribe(rain, "water.wet", rainHandler) }
def updated() { unsubscribe(); subscribe(rain, "water.wet", rainHandler) }
def rainHandler(evt) {
    sprinkler.off()
}
