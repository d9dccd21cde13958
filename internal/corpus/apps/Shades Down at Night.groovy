
definition(name: "Shades Down at Night", namespace: "iotsan.corpus", author: "Community",
    description: "Close the window shades for Night mode, open for Home.", category: "Convenience")
preferences {
    section("Shades") { input "shades", "capability.windowShade", multiple: true }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    if (evt.value == "Night") {
        shades.close()
    } else if (evt.value == "Home") {
        shades.open()
    }
}
