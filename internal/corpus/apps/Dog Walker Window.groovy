
definition(name: "Dog Walker Window", namespace: "iotsan.corpus", author: "Community",
    description: "Let the dog walker in: unlock when their fob arrives in Away mode.", category: "Convenience")
preferences {
    section("Walker fob") { input "walker", "capability.presenceSensor" }
    section("Front lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(walker, "presence.present", walkerHere) }
def updated() { unsubscribe(); subscribe(walker, "presence.present", walkerHere) }
def walkerHere(evt) {
    if (location.mode == "Away") {
        lock1.unlock()
        sendPush("Dog walker arrived; front door unlocked")
    }
}
