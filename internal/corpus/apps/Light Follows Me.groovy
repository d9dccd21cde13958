
definition(
    name: "Light Follows Me",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Turn your lights on when motion is detected and off when motion stops.",
    category: "Convenience"
)

preferences {
    section("Turn on when there's movement...") {
        input "motion1", "capability.motionSensor", title: "Where?"
    }
    section("And off when there's been no movement for...") {
        input "minutes1", "number", title: "Minutes?"
    }
    section("Turn on/off light(s)...") {
        input "switches", "capability.switch", multiple: true
    }
}

def installed() {
    subscribe(motion1, "motion", motionHandler)
}

def updated() {
    unsubscribe()
    subscribe(motion1, "motion", motionHandler)
}

def motionHandler(evt) {
    if (evt.value == "active") {
        switches.on()
        state.inactiveAt = null
    } else if (evt.value == "inactive") {
        state.inactiveAt = now()
        runIn(minutes1 * 60, scheduleCheck)
    }
}

def scheduleCheck() {
    if (state.inactiveAt != null) {
        switches.off()
        state.inactiveAt = null
    }
}
