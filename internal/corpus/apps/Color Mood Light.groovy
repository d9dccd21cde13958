
definition(name: "Color Mood Light", namespace: "iotsan.corpus", author: "Community",
    description: "Shift the color accent bulb with the location mode.", category: "Convenience")
preferences {
    section("Color bulb") { input "bulb", "capability.colorControl" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    if (evt.value == "Home") {
        bulb.setHue(25)
    } else if (evt.value == "Night") {
        bulb.setHue(70)
    }
}
