
definition(name: "Auto Lock Door", namespace: "smartthings", author: "SmartThings",
    description: "Automatically locks the door after it closes.", category: "Safety & Security")
preferences {
    section("Lock") { input "lock1", "capability.lock" }
    section("Door contact") { input "contact1", "capability.contactSensor" }
    section("Delay (minutes)") { input "minutesLater", "number", title: "Minutes?" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() { subscribe(contact1, "contact.closed", doorClosedHandler) }
def doorClosedHandler(evt) {
    runIn(minutesLater * 60, lockDoor)
}
def lockDoor() {
    if (contact1.currentContact == "closed") {
        lock1.lock()
    }
}
