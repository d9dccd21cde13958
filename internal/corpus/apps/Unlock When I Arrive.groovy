
definition(name: "Unlock When I Arrive", namespace: "iotsan.corpus", author: "Community",
    description: "Unlocks the door when someone arrives home.", category: "Convenience")
preferences {
    section("Presence") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence.present", arrivedHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.present", arrivedHandler) }
def arrivedHandler(evt) {
    lock1.unlock()
}
