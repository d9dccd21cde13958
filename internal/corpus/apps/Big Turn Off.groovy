
definition(name: "Big Turn Off", namespace: "smartthings", author: "SmartThings",
    description: "Turn your lights off when the SmartApp is tapped or activated.", category: "Convenience")
preferences {
    section("Turn off...") { input "switches", "capability.switch", multiple: true }
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
def appTouch(evt) { switches.off() }
def changedLocationMode(evt) { switches.off() }
