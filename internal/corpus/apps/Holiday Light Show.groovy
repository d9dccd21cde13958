
definition(name: "Holiday Light Show", namespace: "iotsan.corpus", author: "Community",
    description: "Tap to toggle the holiday light circuit.", category: "Convenience")
preferences {
    section("Holiday lights") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(app, appTouch) }
def updated() { unsubscribe(); subscribe(app, appTouch) }
def appTouch(evt) {
    def anyOn = lights.any { it.currentSwitch == "on" }
    if (anyOn) {
        lights.off()
    } else {
        lights.on()
    }
}
