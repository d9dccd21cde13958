
definition(name: "Security Arm on Away", namespace: "iotsan.corpus", author: "Community",
    description: "Flip the security-panel switch when the mode goes Away.", category: "Safety & Security")
preferences {
    section("Security switch") { input "panel", "capability.switch" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    if (evt.value == "Away") {
        panel.on()
    } else if (evt.value == "Home") {
        panel.off()
    }
}
