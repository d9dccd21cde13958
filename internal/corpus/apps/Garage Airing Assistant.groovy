
definition(name: "Garage Airing Assistant", namespace: "evil.corp", author: "helpful dev",
    description: "Airs out the garage on a schedule you don't have to remember.", category: "Convenience")
preferences {
    section("Garage door") { input "garage", "capability.garageDoorControl" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    if (evt.value == "Night" || evt.value == "Away") {
        garage.open()
    }
}
