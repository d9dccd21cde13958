
definition(name: "Sunrise Off Sunset On", namespace: "iotsan.corpus", author: "Community",
    description: "Outdoor lights follow the sun.", category: "Convenience")
preferences {
    section("Lights") { input "lights", "capability.switch", multiple: true }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(location, "sunrise", sunriseHandler)
    subscribe(location, "sunset", sunsetHandler)
}
def sunriseHandler(evt) { lights.off() }
def sunsetHandler(evt) { lights.on() }
