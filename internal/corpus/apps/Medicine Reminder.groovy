
definition(name: "Medicine Reminder", namespace: "smartthings", author: "SmartThings",
    description: "Remind me if the medicine drawer wasn't opened by evening.", category: "Convenience")
preferences {
    section("Drawer contact") { input "drawer", "capability.contactSensor" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(drawer, "contact.open", tookMedicine)
    subscribe(location, "sunset", checkTaken)
}
def tookMedicine(evt) {
    state.taken = true
}
def checkTaken(evt) {
    if (state.taken != true) {
        sendPush("Medicine drawer not opened today")
    }
    state.taken = false
}
