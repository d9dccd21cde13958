
definition(name: "Last Out Lock", namespace: "iotsan.corpus", author: "Community",
    description: "Lock the front door when the last person leaves.", category: "Safety & Security")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (!anyoneHome) {
        lock1.lock()
        state.lastAction = "locked"
    }
}
