
definition(name: "Climate Keeper", namespace: "iotsan.corpus", author: "Community",
    description: "Switch between a space heater and a window AC around a setpoint.", category: "Green Living")
preferences {
    section("Sensor") { input "sensor", "capability.temperatureMeasurement", title: "Sensor" }
    section("Heater") { input "heater", "capability.switch", title: "Heater" }
    section("AC") { input "ac", "capability.switch", title: "AC" }
    section("Setpoint") { input "setpoint", "decimal", title: "Set Temp" }
}
def installed() { subscribe(sensor, "temperature", temperatureHandler) }
def updated() { unsubscribe(); subscribe(sensor, "temperature", temperatureHandler) }
def temperatureHandler(evt) {
    if (evt.numericValue > setpoint) {
        heater.off()
        ac.on()
    } else if (evt.numericValue < setpoint) {
        ac.off()
        heater.on()
    }
}
