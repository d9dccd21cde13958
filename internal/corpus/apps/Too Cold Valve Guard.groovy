
definition(name: "Too Cold Valve Guard", namespace: "iotsan.corpus", author: "Community",
    description: "Close the main water valve when freezing is likely and nobody is home.", category: "Safety & Security")
preferences {
    section("Sensor") { input "sensor", "capability.temperatureMeasurement" }
    section("Main valve") { input "valve1", "capability.valve" }
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(sensor, "temperature", tempHandler) }
def updated() { unsubscribe(); subscribe(sensor, "temperature", tempHandler) }
def tempHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (evt.numericValue < 35 && !anyoneHome) {
        valve1.close()
        sendPush("Freeze risk while away: water main closed")
    }
}
