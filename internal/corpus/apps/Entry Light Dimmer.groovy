
definition(name: "Entry Light Dimmer", namespace: "iotsan.corpus", author: "Community",
    description: "Set the entry dimmer to a comfortable level when the door opens.", category: "Convenience")
preferences {
    section("Door") { input "contact1", "capability.contactSensor" }
    section("Dimmer") { input "dimmer", "capability.switchLevel" }
    section("Level") { input "level", "number", title: "0-100" }
}
def installed() { subscribe(contact1, "contact.open", openHandler) }
def updated() { unsubscribe(); subscribe(contact1, "contact.open", openHandler) }
def openHandler(evt) {
    dimmer.setLevel(level)
    dimmer.on()
}
