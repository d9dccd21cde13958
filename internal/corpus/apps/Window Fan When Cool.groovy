
definition(name: "Window Fan When Cool", namespace: "iotsan.corpus", author: "Community",
    description: "Pull in cool evening air with a window fan instead of the AC.", category: "Green Living")
preferences {
    section("Outdoor sensor") { input "outdoor", "capability.temperatureMeasurement" }
    section("Window fan") { input "fan", "capability.switch" }
    section("AC outlet") { input "ac", "capability.switch", required: false }
    section("Run below") { input "below", "number", title: "Degrees" }
}
def installed() { subscribe(outdoor, "temperature", tempHandler) }
def updated() { unsubscribe(); subscribe(outdoor, "temperature", tempHandler) }
def tempHandler(evt) {
    if (evt.numericValue < below) {
        fan.on()
        if (ac) {
            ac.off()
        }
    } else {
        fan.off()
    }
}
