
definition(name: "Fire Escape Unlock", namespace: "iotsan.corpus", author: "Community",
    description: "Unlock all doors when smoke is detected and someone is home.", category: "Safety & Security")
preferences {
    section("Smoke detectors") { input "smokes", "capability.smokeDetector", multiple: true }
    section("Locks") { input "locks", "capability.lock", multiple: true }
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(smokes, "smoke.detected", fireHandler) }
def updated() { unsubscribe(); subscribe(smokes, "smoke.detected", fireHandler) }
def fireHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (anyoneHome) {
        locks.each { it.unlock() }
        sendPush("Fire! Doors unlocked for escape")
    }
}
