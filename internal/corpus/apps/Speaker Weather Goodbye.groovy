
definition(name: "Speaker Weather Goodbye", namespace: "iotsan.corpus", author: "Community",
    description: "Speak a sendoff when someone is leaving (presence lost).", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Speaker") { input "speaker", "capability.speechSynthesis" }
}
def installed() { subscribe(people, "presence.not present", leaving) }
def updated() { unsubscribe(); subscribe(people, "presence.not present", leaving) }
def leaving(evt) {
    speaker.speak()
}
