
definition(name: "Sunset Mode Change", namespace: "smartthings", author: "SmartThings",
    description: "Change the location mode at sunset.", category: "Mode Magic")
preferences {
    section("Evening mode") { input "eveningMode", "mode", title: "Mode?" }
}
def installed() { subscribe(location, "sunset", sunsetHandler) }
def updated() { unsubscribe(); subscribe(location, "sunset", sunsetHandler) }
def sunsetHandler(evt) {
    if (location.mode != eveningMode) {
        setLocationMode(eveningMode)
    }
}
