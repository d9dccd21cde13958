
definition(name: "Hall Light on Door Knock", namespace: "iotsan.corpus", author: "Community",
    description: "Turn on the hall light when the door vibrates (a knock).", category: "Convenience")
preferences {
    section("Acceleration") { input "accel", "capability.accelerationSensor" }
    section("Light") { input "light", "capability.switch" }
}
def installed() { subscribe(accel, "acceleration.active", knockHandler) }
def updated() { unsubscribe(); subscribe(accel, "acceleration.active", knockHandler) }
def knockHandler(evt) {
    light.on()
}
