
definition(name: "Arrival Thermostat Boost", namespace: "iotsan.corpus", author: "Community",
    description: "Pre-warm the house when the car gets close.", category: "Green Living")
preferences {
    section("Car presence") { input "car", "capability.presenceSensor" }
    section("Thermostat") { input "thermostat", "capability.thermostat" }
}
def installed() { subscribe(car, "presence.present", arriveHandler) }
def updated() { unsubscribe(); subscribe(car, "presence.present", arriveHandler) }
def arriveHandler(evt) {
    thermostat.heat()
    thermostat.setHeatingSetpoint(70)
}
