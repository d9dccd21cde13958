
definition(name: "Bedtime Lock Check", namespace: "iotsan.corpus", author: "Community",
    description: "Lock every door when the house goes to sleep.", category: "Safety & Security")
preferences {
    section("Locks") { input "locks", "capability.lock", multiple: true }
}
def installed() { subscribe(location, "mode.Night", nightHandler) }
def updated() { unsubscribe(); subscribe(location, "mode.Night", nightHandler) }
def nightHandler(evt) {
    locks.each { it.lock() }
    sendPush("All doors locked for the night")
}
