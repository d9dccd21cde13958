
definition(name: "Entry Breach Siren", namespace: "iotsan.corpus", author: "Community",
    description: "Sound the siren when an entry opens in Away mode.", category: "Safety & Security")
preferences {
    section("Entries") { input "entries", "capability.contactSensor", multiple: true }
    section("Siren") { input "siren", "capability.alarm" }
}
def installed() { subscribe(entries, "contact.open", breachHandler) }
def updated() { unsubscribe(); subscribe(entries, "contact.open", breachHandler) }
def breachHandler(evt) {
    if (location.mode == "Away") {
        siren.siren()
        sendPush("Entry breach: ${evt.displayName}")
    }
}
