
definition(name: "Away Thermostat Setback", namespace: "iotsan.corpus", author: "Community",
    description: "Set back the thermostat when everyone leaves.", category: "Green Living")
preferences {
    section("Thermostat") { input "thermostat", "capability.thermostat" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    if (evt.value == "Away") {
        thermostat.setHeatingSetpoint(58)
        thermostat.setCoolingSetpoint(85)
    } else if (evt.value == "Home") {
        thermostat.setHeatingSetpoint(68)
        thermostat.setCoolingSetpoint(76)
    }
}
