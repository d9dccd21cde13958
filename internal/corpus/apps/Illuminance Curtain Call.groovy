
definition(name: "Illuminance Curtain Call", namespace: "iotsan.corpus", author: "Community",
    description: "Turn porch lights on when it gets dark outside.", category: "Convenience")
preferences {
    section("Outdoor sensor") { input "lux", "capability.illuminanceMeasurement" }
    section("Porch lights") { input "lights", "capability.switch", multiple: true }
    section("Threshold") { input "threshold", "number", title: "Lux" }
}
def installed() { subscribe(lux, "illuminance", luxHandler) }
def updated() { unsubscribe(); subscribe(lux, "illuminance", luxHandler) }
def luxHandler(evt) {
    if (evt.numericValue < threshold) {
        lights.on()
    } else {
        lights.off()
    }
}
