
definition(name: "First In Unlock", namespace: "iotsan.corpus", author: "Community",
    description: "Unlock the front door when someone arrives.", category: "Safety & Security")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence.present", arrivalHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.present", arrivalHandler) }
def arrivalHandler(evt) {
    lock1.unlock()
    state.lastAction = "unlocked"
}
