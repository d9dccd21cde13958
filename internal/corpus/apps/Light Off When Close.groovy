
definition(
    name: "Light Off When Close",
    namespace: "iotsan.corpus",
    author: "Community",
    description: "Turn lights off when a door closes.",
    category: "Convenience"
)

preferences {
    section("When the door closes...") {
        input "contact1", "capability.contactSensor", title: "Where?"
    }
    section("Turn off a light...") {
        input "switches", "capability.switch", multiple: true
    }
}

def installed() {
    subscribe(contact1, "contact.closed", contactClosedHandler)
}

def updated() {
    unsubscribe()
    subscribe(contact1, "contact.closed", contactClosedHandler)
}

def contactClosedHandler(evt) {
    switches.off()
}
