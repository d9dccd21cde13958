
definition(name: "Sunrise Mode Change", namespace: "iotsan.corpus", author: "Community",
    description: "Return to Home mode at sunrise.", category: "Mode Magic")
preferences {
    section("Day mode") { input "dayMode", "mode", title: "Mode?" }
}
def installed() { subscribe(location, "sunrise", sunriseHandler) }
def updated() { unsubscribe(); subscribe(location, "sunrise", sunriseHandler) }
def sunriseHandler(evt) {
    if (location.mode != dayMode) {
        setLocationMode(dayMode)
    }
}
