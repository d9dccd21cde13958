
definition(name: "Whole House Fan", namespace: "smartthings", author: "SmartThings",
    description: "Run the whole-house fan instead of AC when outside is cooler than inside.", category: "Green Living")
preferences {
    section("Outdoor") { input "outdoor", "capability.temperatureMeasurement" }
    section("Indoor") { input "indoor", "capability.temperatureMeasurement" }
    section("Fan") { input "fan", "capability.switch" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(outdoor, "temperature", checkFan)
    subscribe(indoor, "temperature", checkFan)
}
def checkFan(evt) {
    def out = outdoor.currentTemperature
    def inside = indoor.currentTemperature
    if (out != null && inside != null && out < inside - 2) {
        fan.on()
    } else {
        fan.off()
    }
}
