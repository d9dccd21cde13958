
definition(name: "Curling Iron Cutoff", namespace: "smartthings", author: "SmartThings",
    description: "Turn off risky outlets when everyone leaves.", category: "Safety & Security")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Risky outlets") { input "outlets", "capability.switch", multiple: true }
}
def installed() { subscribe(people, "presence.not present", leftHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.not present", leftHandler) }
def leftHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (!anyoneHome) {
        outlets.off()
        sendPush("Turned off risky outlets")
    }
}
