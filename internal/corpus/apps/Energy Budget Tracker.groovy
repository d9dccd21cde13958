
definition(name: "Energy Budget Tracker", namespace: "iotsan.corpus", author: "Community",
    description: "Track daily energy and warn over budget.", category: "Green Living")
preferences {
    section("Meter") { input "meter", "capability.energyMeter" }
    section("Budget (kWh)") { input "budget", "number", title: "kWh" }
}
def installed() { subscribe(meter, "energy", energyHandler) }
def updated() { unsubscribe(); subscribe(meter, "energy", energyHandler) }
def energyHandler(evt) {
    if (evt.numericValue > budget && state.warned != true) {
        state.warned = true
        sendPush("Energy budget exceeded: ${evt.value} kWh")
    }
}
