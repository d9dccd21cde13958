
definition(name: "Any Door Light On", namespace: "iotsan.corpus", author: "Community",
    description: "Turn the hall light on when any door opens.", category: "Convenience")
preferences {
    section("Doors") { input "contacts", "capability.contactSensor", multiple: true }
    section("Light") { input "light", "capability.switch" }
}
def installed() { subscribe(contacts, "contact.open", openHandler) }
def updated() { unsubscribe(); subscribe(contacts, "contact.open", openHandler) }
def openHandler(evt) {
    log.debug "open from ${evt.displayName}"
    light.on()
}
