
definition(name: "Night Owl Warning", namespace: "iotsan.corpus", author: "Community",
    description: "Remind me to sleep if lights are still on deep into Night mode.", category: "Convenience")
preferences {
    section("Lights") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(lights, "switch.on", lightOnHandler) }
def updated() { unsubscribe(); subscribe(lights, "switch.on", lightOnHandler) }
def lightOnHandler(evt) {
    if (location.mode == "Night") {
        runIn(1800, nag)
    }
}
def nag() {
    def anyOn = lights.any { it.currentSwitch == "on" }
    if (anyOn && location.mode == "Night") {
        sendPush("Lights are still on - time for bed?")
    }
}
