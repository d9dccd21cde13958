
definition(
    name: "Big Turn On",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Turn your lights on when the SmartApp is tapped or activated.",
    category: "Convenience"
)

preferences {
    section("Turn on...") {
        input "switches", "capability.switch", multiple: true
    }
}

def installed() {
    subscribe(app, appTouch)
    subscribe(location, "mode", changedLocationMode)
}

def updated() {
    unsubscribe()
    subscribe(app, appTouch)
    subscribe(location, "mode", changedLocationMode)
}

def appTouch(evt) {
    log.debug "appTouch: $evt"
    switches.on()
}

def changedLocationMode(evt) {
    log.debug "changedLocationMode: $evt"
    switches.on()
}
