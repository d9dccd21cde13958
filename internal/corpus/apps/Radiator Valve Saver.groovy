
definition(name: "Radiator Valve Saver", namespace: "iotsan.corpus", author: "Community",
    description: "Close the radiator loop valve when the room is warm.", category: "Green Living")
preferences {
    section("Room sensor") { input "sensor", "capability.temperatureMeasurement" }
    section("Loop valve") { input "valve1", "capability.valve" }
    section("Warm at") { input "warm", "number", title: "Degrees" }
}
def installed() { subscribe(sensor, "temperature", tempHandler) }
def updated() { unsubscribe(); subscribe(sensor, "temperature", tempHandler) }
def tempHandler(evt) {
    if (evt.numericValue >= warm) {
        valve1.close()
    } else {
        valve1.open()
    }
}
