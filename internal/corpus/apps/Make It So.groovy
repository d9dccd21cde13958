
definition(
    name: "Make It So",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Saves the states of switches and locks and restores them on mode change.",
    category: "Mode Magic"
)

preferences {
    section("Switches") {
        input "switches", "capability.switch", multiple: true, required: false
    }
    section("Locks") {
        input "locks", "capability.lock", multiple: true, required: false
    }
}

def installed() {
    subscribe(location, "mode", changedLocationMode)
}

def updated() {
    unsubscribe()
    subscribe(location, "mode", changedLocationMode)
}

def changedLocationMode(evt) {
    if (evt.value == "Away") {
        switches.off()
        locks.lock()
    } else if (evt.value == "Home") {
        switches.on()
        locks.unlock()
    }
}
