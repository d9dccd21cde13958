
definition(name: "Flash on Arrival", namespace: "iotsan.corpus", author: "Community",
    description: "Turn the living room lamp on briefly when family arrives.", category: "Convenience")
preferences {
    section("Family") { input "people", "capability.presenceSensor", multiple: true }
    section("Lamp") { input "lamp", "capability.switch" }
}
def installed() { subscribe(people, "presence.present", arrive) }
def updated() { unsubscribe(); subscribe(people, "presence.present", arrive) }
def arrive(evt) {
    lamp.on()
    runIn(120, lampOff)
}
def lampOff() {
    lamp.off()
}
