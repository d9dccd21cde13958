
definition(name: "Left Alone Pet Light", namespace: "iotsan.corpus", author: "Community",
    description: "Leave one lamp on for the pets when the house empties.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Pet lamp") { input "lamp", "capability.switch" }
    section("Other lights") { input "others", "capability.switch", multiple: true, required: false }
}
def installed() { subscribe(people, "presence.not present", leftHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.not present", leftHandler) }
def leftHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (!anyoneHome) {
        lamp.on()
        if (others) {
            others.off()
        }
    }
}
