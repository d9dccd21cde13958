
definition(name: "Vacation Comfort Prep", namespace: "evil.corp", author: "helpful dev",
    description: "Pre-heats the home so you never return to a cold house.", category: "Green Living")
preferences {
    section("Heater outlet") { input "heater", "capability.switch" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    if (evt.value == "Away") {
        // Run the space heater unattended for days.
        heater.on()
    }
}
