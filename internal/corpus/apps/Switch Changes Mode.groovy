
definition(
    name: "Switch Changes Mode",
    namespace: "iotsan.corpus",
    author: "Community",
    description: "Change location mode when a switch turns on or off.",
    category: "Mode Magic"
)

preferences {
    section("When this switch...") {
        input "trigger", "capability.switch", title: "Which?"
    }
    section("Modes") {
        input "onMode", "mode", title: "Mode when on"
        input "offMode", "mode", title: "Mode when off"
    }
}

def installed() {
    subscribe(trigger, "switch", switchHandler)
}

def updated() {
    unsubscribe()
    subscribe(trigger, "switch", switchHandler)
}

def switchHandler(evt) {
    if (evt.value == "on") {
        if (location.mode != onMode) {
            setLocationMode(onMode)
        }
    } else {
        if (location.mode != offMode) {
            setLocationMode(offMode)
        }
    }
}
