
definition(name: "Fridge Door Energy Saver", namespace: "iotsan.corpus", author: "Community",
    description: "Track fridge door openings and report at the 10th.", category: "Green Living")
preferences {
    section("Fridge contact") { input "fridge", "capability.contactSensor" }
}
def installed() { subscribe(fridge, "contact.open", openHandler) }
def updated() { unsubscribe(); subscribe(fridge, "contact.open", openHandler) }
def openHandler(evt) {
    def opens = state.opens ?: 0
    opens = opens + 1
    state.opens = opens
    if (opens >= 10) {
        sendPush("Fridge opened ${opens} times today")
        state.opens = 0
    }
}
