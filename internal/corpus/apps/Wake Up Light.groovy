
definition(name: "Wake Up Light", namespace: "iotsan.corpus", author: "Community",
    description: "Raise the bedroom dimmer gradually at sunrise.", category: "Convenience")
preferences {
    section("Bedroom dimmer") { input "dimmer", "capability.switchLevel" }
}
def installed() { subscribe(location, "sunrise", sunriseHandler) }
def updated() { unsubscribe(); subscribe(location, "sunrise", sunriseHandler) }
def sunriseHandler(evt) {
    dimmer.setLevel(30)
    dimmer.on()
    runIn(600, brighten)
}
def brighten() {
    dimmer.setLevel(80)
}
