
definition(name: "Thermostat Setpoint Sync", namespace: "iotsan.corpus", author: "Community",
    description: "Keep heating and cooling setpoints a safe span apart.", category: "Green Living")
preferences {
    section("Thermostat") { input "thermostat", "capability.thermostat" }
    section("Heat setpoint") { input "heatSp", "number", title: "Degrees" }
    section("Cool setpoint") { input "coolSp", "number", title: "Degrees" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    thermostat.setHeatingSetpoint(heatSp)
    thermostat.setCoolingSetpoint(coolSp)
}
