
definition(name: "Sump Pump Sentinel", namespace: "iotsan.corpus", author: "Community",
    description: "Watch the sump water level and run the pump outlet.", category: "Safety & Security")
preferences {
    section("Water level") { input "level", "capability.waterLevelMeasurement" }
    section("Pump outlet") { input "pump", "capability.switch" }
    section("High mark") { input "high", "number", title: "Percent" }
}
def installed() { subscribe(level, "waterLevel", levelHandler) }
def updated() { unsubscribe(); subscribe(level, "waterLevel", levelHandler) }
def levelHandler(evt) {
    if (evt.numericValue > high) {
        pump.on()
    } else if (evt.numericValue < 20) {
        pump.off()
    }
}
