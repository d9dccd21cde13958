
definition(name: "Presence Valve Control", namespace: "iotsan.corpus", author: "Community",
    description: "Shut the water main whenever the house empties.", category: "Safety & Security")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Main valve") { input "valve1", "capability.valve" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (anyoneHome) {
        valve1.open()
    } else {
        valve1.close()
    }
}
