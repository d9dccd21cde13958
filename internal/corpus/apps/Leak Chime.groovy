
definition(name: "Leak Chime", namespace: "iotsan.corpus", author: "Community",
    description: "Beep the kitchen chime when the washing machine leaks.", category: "Safety & Security")
preferences {
    section("Leak sensor") { input "leak1", "capability.waterSensor" }
    section("Chime") { input "chime", "capability.tone" }
}
def installed() { subscribe(leak1, "water.wet", leakHandler) }
def updated() { unsubscribe(); subscribe(leak1, "water.wet", leakHandler) }
def leakHandler(evt) {
    chime.beep()
}
