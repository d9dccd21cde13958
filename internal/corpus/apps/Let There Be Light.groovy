
definition(name: "Let There Be Light", namespace: "smartthings", author: "SmartThings",
    description: "Turn lights on when a door opens and off when it closes.", category: "Convenience")
preferences {
    section("Door") { input "contact1", "capability.contactSensor" }
    section("Lights") { input "switches", "capability.switch", multiple: true }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() { subscribe(contact1, "contact", contactHandler) }
def contactHandler(evt) {
    if (evt.value == "open") {
        switches.on()
    } else {
        switches.off()
    }
}
