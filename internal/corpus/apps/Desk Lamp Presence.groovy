
definition(name: "Desk Lamp Presence", namespace: "iotsan.corpus", author: "Community",
    description: "Home-office lamp follows motion at the desk.", category: "Convenience")
preferences {
    section("Desk motion") { input "motion1", "capability.motionSensor" }
    section("Lamp") { input "lamp", "capability.switch" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() { subscribe(motion1, "motion", deskHandler) }
def deskHandler(evt) {
    if (evt.value == "active") {
        lamp.on()
    } else {
        runIn(900, lampOff)
    }
}
def lampOff() {
    if (motion1.currentMotion == "inactive") {
        lamp.off()
    }
}
