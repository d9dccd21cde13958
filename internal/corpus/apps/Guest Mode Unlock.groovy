
definition(name: "Guest Mode Unlock", namespace: "iotsan.corpus", author: "Community",
    description: "While in Home mode, keep the side door unlocked for guests.", category: "Convenience")
preferences {
    section("Side door lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    if (evt.value == "Home") {
        lock1.unlock()
    } else {
        lock1.lock()
    }
}
