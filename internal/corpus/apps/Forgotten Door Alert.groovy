
definition(name: "Forgotten Door Alert", namespace: "iotsan.corpus", author: "Community",
    description: "Notify me when a door is left open.", category: "Safety & Security")
preferences {
    section("Door") { input "contact1", "capability.contactSensor" }
    section("Minutes") { input "openMinutes", "number", title: "Minutes?" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(contact1, "contact.open", doorOpen)
    subscribe(contact1, "contact.closed", doorClosed)
}
def doorOpen(evt) {
    state.open = true
    runIn(openMinutes * 60, checkStillOpen)
}
def doorClosed(evt) {
    state.open = false
}
def checkStillOpen() {
    if (state.open) {
        if (phone) {
            sendSms(phone, "${contact1.displayName} has been open too long")
        } else {
            sendPush("${contact1.displayName} has been open too long")
        }
    }
}
