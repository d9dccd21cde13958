
definition(name: "Appliance Done Speaker", namespace: "iotsan.corpus", author: "Community",
    description: "Announce when the dryer's power draw drops to idle.", category: "Convenience")
preferences {
    section("Dryer meter") { input "meter", "capability.powerMeter" }
    section("Speaker") { input "speaker", "capability.speechSynthesis" }
}
def installed() { subscribe(meter, "power", powerHandler) }
def updated() { unsubscribe(); subscribe(meter, "power", powerHandler) }
def powerHandler(evt) {
    def watts = evt.numericValue
    if (watts > 100) {
        state.drying = true
    } else if (state.drying && watts < 10) {
        state.drying = false
        speaker.speak()
    }
}
