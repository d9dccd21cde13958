
definition(name: "Doorbell Speaker", namespace: "iotsan.corpus", author: "Community",
    description: "The button by the door plays a chime inside.", category: "Convenience")
preferences {
    section("Doorbell button") { input "bell", "capability.button" }
    section("Speaker") { input "speaker", "capability.tone" }
}
def installed() { subscribe(bell, "button.pushed", ring) }
def updated() { unsubscribe(); subscribe(bell, "button.pushed", ring) }
def ring(evt) {
    speaker.beep()
}
