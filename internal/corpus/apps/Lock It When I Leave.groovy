
definition(name: "Lock It When I Leave", namespace: "smartthings", author: "SmartThings",
    description: "Locks the door when a presence sensor leaves.", category: "Safety & Security")
preferences {
    section("Presence") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence.not present", leftHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.not present", leftHandler) }
def leftHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (!anyoneHome) {
        lock1.lock()
        sendPush("Locked the door because everyone left")
    }
}
