
definition(name: "CO Fan Purge", namespace: "iotsan.corpus", author: "Community",
    description: "Run the ventilation fan when CO is detected.", category: "Safety & Security")
preferences {
    section("CO detector") { input "co1", "capability.carbonMonoxideDetector" }
    section("Vent fan") { input "fan", "capability.switch" }
}
def installed() { subscribe(co1, "carbonMonoxide.detected", coHandler) }
def updated() { unsubscribe(); subscribe(co1, "carbonMonoxide.detected", coHandler) }
def coHandler(evt) {
    fan.on()
}
