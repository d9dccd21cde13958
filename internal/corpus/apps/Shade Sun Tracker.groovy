
definition(name: "Shade Sun Tracker", namespace: "iotsan.corpus", author: "Community",
    description: "Close shades on bright hot afternoons; open when mild.", category: "Green Living")
preferences {
    section("Outdoor lux") { input "lux", "capability.illuminanceMeasurement" }
    section("Indoor temp") { input "temp", "capability.temperatureMeasurement" }
    section("Shades") { input "shades", "capability.windowShade", multiple: true }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(lux, "illuminance", evaluateShades)
    subscribe(temp, "temperature", evaluateShades)
}
def evaluateShades(evt) {
    def bright = lux.currentIlluminance > 400
    def hot = temp.currentTemperature > 78
    if (bright && hot) {
        shades.close()
    } else {
        shades.open()
    }
}
