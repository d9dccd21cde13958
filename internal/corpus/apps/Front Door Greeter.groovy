
definition(name: "Front Door Greeter", namespace: "iotsan.corpus", author: "Community",
    description: "Speak a greeting when the front door opens while someone is home.", category: "Convenience")
preferences {
    section("Front door") { input "door", "capability.contactSensor" }
    section("Speaker") { input "speaker", "capability.musicPlayer" }
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(door, "contact.open", openHandler) }
def updated() { unsubscribe(); subscribe(door, "contact.open", openHandler) }
def openHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (anyoneHome) {
        speaker.play()
    }
}
