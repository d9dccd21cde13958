
definition(
    name: "Let There Be Dark!",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Turn your lights off when an open/close sensor closes and on when it opens.",
    category: "Convenience"
)

preferences {
    section("When the door opens/closes...") {
        input "contact1", "capability.contactSensor", title: "Where?"
    }
    section("Turn on/off a light...") {
        input "switches", "capability.switch", multiple: true
    }
}

def installed() {
    subscribe(contact1, "contact", contactHandler)
}

def updated() {
    unsubscribe()
    subscribe(contact1, "contact", contactHandler)
}

def contactHandler(evt) {
    if (evt.value == "open") {
        switches.off()
    } else if (evt.value == "closed") {
        switches.on()
    }
}
