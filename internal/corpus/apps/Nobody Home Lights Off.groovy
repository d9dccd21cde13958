
definition(name: "Nobody Home Lights Off", namespace: "iotsan.corpus", author: "Community",
    description: "Sweep all lights off shortly after the mode turns Away.", category: "Green Living")
preferences {
    section("Lights") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(location, "mode.Away", awayHandler) }
def updated() { unsubscribe(); subscribe(location, "mode.Away", awayHandler) }
def awayHandler(evt) {
    runIn(300, sweep)
}
def sweep() {
    if (location.mode == "Away") {
        lights.off()
    }
}
