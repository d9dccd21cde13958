
definition(name: "Two Stage Departure", namespace: "iotsan.corpus", author: "Community",
    description: "Wait a grace period before going Away, in case someone returns.", category: "Mode Magic")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Grace (min)") { input "grace", "number", title: "Minutes" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() { subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (!anyoneHome) {
        runIn(grace * 60, commitAway)
    } else if (location.mode == "Away") {
        setLocationMode("Home")
    }
}
def commitAway() {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (!anyoneHome && location.mode != "Away") {
        setLocationMode("Away")
    }
}
