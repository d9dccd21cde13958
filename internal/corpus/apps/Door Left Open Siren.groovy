
definition(name: "Door Left Open Siren", namespace: "iotsan.corpus", author: "Community",
    description: "Chirp the siren if the garage-entry door stays open in Away.", category: "Safety & Security")
preferences {
    section("Entry contact") { input "entry", "capability.contactSensor" }
    section("Siren") { input "siren", "capability.alarm" }
}
def installed() { subscribe(entry, "contact.open", openHandler) }
def updated() { unsubscribe(); subscribe(entry, "contact.open", openHandler) }
def openHandler(evt) {
    if (location.mode == "Away") {
        runIn(600, checkStillOpen)
    }
}
def checkStillOpen() {
    if (entry.currentContact == "open" && location.mode == "Away") {
        siren.siren()
    }
}
