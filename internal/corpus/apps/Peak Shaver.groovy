
definition(name: "Peak Shaver", namespace: "iotsan.corpus", author: "Community",
    description: "Shed discretionary loads when total power spikes.", category: "Green Living")
preferences {
    section("Whole-home meter") { input "meter", "capability.powerMeter" }
    section("Shed these") { input "loads", "capability.switch", multiple: true }
    section("Limit (W)") { input "limit", "number", title: "Watts" }
}
def installed() { subscribe(meter, "power", powerHandler) }
def updated() { unsubscribe(); subscribe(meter, "power", powerHandler) }
def powerHandler(evt) {
    if (evt.numericValue > limit) {
        loads.each { it.off() }
    }
}
