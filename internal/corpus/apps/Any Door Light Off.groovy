
definition(name: "Any Door Light Off", namespace: "iotsan.corpus", author: "Community",
    description: "Keep the hall dark: switch the light off when a door opens.", category: "Green Living")
preferences {
    section("Doors") { input "contacts", "capability.contactSensor", multiple: true }
    section("Light") { input "light", "capability.switch" }
}
def installed() { subscribe(contacts, "contact.open", openHandler) }
def updated() { unsubscribe(); subscribe(contacts, "contact.open", openHandler) }
def openHandler(evt) {
    light.off()
}
