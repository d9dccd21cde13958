
definition(name: "Everyone's Gone", namespace: "iotsan.corpus", author: "Community",
    description: "When the last person leaves: lights off, doors locked, mode Away.", category: "Mode Magic")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lights off") { input "lights", "capability.switch", multiple: true, required: false }
    section("Locks") { input "locks", "capability.lock", multiple: true, required: false }
}
def installed() { subscribe(people, "presence.not present", leftHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.not present", leftHandler) }
def leftHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (!anyoneHome) {
        if (lights) { lights.off() }
        if (locks) { locks.each { it.lock() } }
        if (location.mode != "Away") {
            setLocationMode("Away")
        }
    }
}
