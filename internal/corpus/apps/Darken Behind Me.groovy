
definition(
    name: "Darken Behind Me",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Turn your lights off after a period of no motion.",
    category: "Convenience"
)

preferences {
    section("When there's no movement...") {
        input "motion1", "capability.motionSensor", title: "Where?"
    }
    section("Turn off...") {
        input "switches", "capability.switch", multiple: true
    }
}

def installed() {
    subscribe(motion1, "motion.inactive", motionInactiveHandler)
}

def updated() {
    unsubscribe()
    subscribe(motion1, "motion.inactive", motionInactiveHandler)
}

def motionInactiveHandler(evt) {
    switches.off()
}
