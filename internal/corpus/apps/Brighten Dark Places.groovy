
definition(
    name: "Brighten Dark Places",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Turn your lights on when an open/close sensor opens and the space is dark.",
    category: "Convenience"
)

preferences {
    section("When the door opens...") {
        input "contact1", "capability.contactSensor", title: "Where?"
    }
    section("And it's dark...") {
        input "luminance1", "capability.illuminanceMeasurement", title: "Where?"
    }
    section("Turn on a light...") {
        input "switches", "capability.switch", multiple: true
    }
}

def installed() {
    subscribe(contact1, "contact.open", contactOpenHandler)
}

def updated() {
    unsubscribe()
    subscribe(contact1, "contact.open", contactOpenHandler)
}

def contactOpenHandler(evt) {
    def lightSensorState = luminance1.currentIlluminance
    log.debug "SENSOR = $lightSensorState"
    if (lightSensorState != null && lightSensorState < 10) {
        log.trace "light.on() ... [luminance: ${lightSensorState}]"
        switches.on()
    }
}
