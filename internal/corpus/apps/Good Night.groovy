
definition(
    name: "Good Night",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Changes mode to sleeping mode when lights are turned off at night.",
    category: "Mode Magic"
)

preferences {
    section("When these lights are all off...") {
        input "switches", "capability.switch", multiple: true
    }
    section("Change to this mode") {
        input "sleepMode", "mode", title: "Sleeping mode"
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
    subscribe(switches, "switch.off", switchOffHandler)
}

private allOff() {
    def result = true
    for (sw in switches) {
        if (sw.currentSwitch == "on") {
            result = false
        }
    }
    return result
}

def switchOffHandler(evt) {
    if (allOff() && location.mode != sleepMode) {
        setLocationMode(sleepMode)
        log.debug "entering sleeping mode $sleepMode"
    }
}
