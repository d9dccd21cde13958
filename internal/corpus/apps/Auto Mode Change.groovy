
definition(
    name: "Auto Mode Change",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Changes location mode based on presence.",
    category: "Mode Magic"
)

preferences {
    section("When these people come and go") {
        input "people", "capability.presenceSensor", multiple: true
    }
    section("Change to this mode when everyone leaves") {
        input "awayMode", "mode", title: "Away mode"
    }
    section("Change to this mode when someone is home") {
        input "homeMode", "mode", title: "Home mode"
    }
}

def installed() {
    initialize()
}

def updated() {
    unsubscribe()
    initialize()
}

def initialize() {
    subscribe(people, "presence", presenceHandler)
}

private everyoneIsAway() {
    def result = true
    for (person in people) {
        if (person.currentPresence == "present") {
            result = false
        }
    }
    return result
}

def presenceHandler(evt) {
    if (evt.value == "not present") {
        if (everyoneIsAway()) {
            def newMode = awayMode
            if (location.mode != newMode) {
                setLocationMode(newMode)
                log.debug "changed mode to $newMode"
            }
        }
    } else {
        def newMode = homeMode
        if (location.mode != newMode) {
            setLocationMode(newMode)
        }
    }
}
