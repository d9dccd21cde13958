
definition(name: "Goodbye Lights", namespace: "iotsan.corpus", author: "Community",
    description: "Turn everything off when the last person leaves.", category: "Convenience")
preferences {
    section("Presence") { input "people", "capability.presenceSensor", multiple: true }
    section("Turn off") { input "switches", "capability.switch", multiple: true }
}
def installed() { subscribe(people, "presence.not present", departureHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.not present", departureHandler) }
private nobodyHome() {
    def home = people.findAll { it.currentPresence == "present" }
    return home.size() == 0
}
def departureHandler(evt) {
    if (nobodyHome()) {
        switches.off()
    }
}
