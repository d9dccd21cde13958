
definition(name: "Thermostat Mode Director", namespace: "smartthings", author: "SmartThings",
    description: "Change the thermostat mode based on the outdoor temperature.", category: "Green Living")
preferences {
    section("Outdoor sensor") { input "sensor", "capability.temperatureMeasurement" }
    section("Thermostat") { input "thermostat", "capability.thermostat" }
    section("Heat below") { input "heatPoint", "number", title: "Degrees" }
    section("Cool above") { input "coolPoint", "number", title: "Degrees" }
}
def installed() { subscribe(sensor, "temperature", tempHandler) }
def updated() { unsubscribe(); subscribe(sensor, "temperature", tempHandler) }
def tempHandler(evt) {
    def t = evt.numericValue
    if (t < heatPoint) {
        thermostat.heat()
    } else if (t > coolPoint) {
        thermostat.cool()
    }
}
