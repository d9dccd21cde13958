
definition(name: "Thermostat Away Mode Switch", namespace: "iotsan.corpus", author: "Community",
    description: "Flip the thermostat between heat and off based on presence.", category: "Green Living")
preferences {
    section("Thermostat") { input "thermostat", "capability.thermostat" }
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (anyoneHome) {
        thermostat.heat()
    } else {
        thermostat.setThermostatMode("off")
    }
}
