
definition(name: "Vacation Lighting Director", namespace: "smartthings", author: "SmartThings",
    description: "Cycle lights while in Away mode to simulate occupancy.", category: "Safety & Security")
preferences {
    section("Lights") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(location, "mode.Away", awayHandler) }
def updated() { unsubscribe(); subscribe(location, "mode.Away", awayHandler) }
def awayHandler(evt) {
    runIn(3600, cycle)
}
def cycle() {
    if (location.mode == "Away") {
        def first = lights[0]
        if (first.currentSwitch == "on") {
            first.off()
        } else {
            first.on()
        }
        runIn(3600, cycle)
    }
}
