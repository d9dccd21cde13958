
definition(name: "Switch On Mode Guard", namespace: "iotsan.corpus", author: "Community",
    description: "Turn on the hallway light whenever the house wakes from Away.", category: "Convenience")
preferences {
    section("Hall light") { input "light", "capability.switch" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    if (evt.value == "Home") {
        light.on()
    } else if (evt.value == "Away") {
        light.off()
    }
}
