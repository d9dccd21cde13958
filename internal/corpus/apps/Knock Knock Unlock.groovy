
definition(name: "Knock Knock Unlock", namespace: "iotsan.corpus", author: "Community",
    description: "Unlock the door after repeated knocks while someone is home.", category: "Convenience")
preferences {
    section("Knock sensor") { input "accel", "capability.accelerationSensor" }
    section("Lock") { input "lock1", "capability.lock" }
    section("Presence") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(accel, "acceleration.active", knock) }
def updated() { unsubscribe(); subscribe(accel, "acceleration.active", knock) }
def knock(evt) {
    def count = state.knocks ?: 0
    count = count + 1
    state.knocks = count
    if (count >= 2) {
        def anyoneHome = people.any { it.currentPresence == "present" }
        if (anyoneHome) {
            lock1.unlock()
        }
        state.knocks = 0
    }
}
