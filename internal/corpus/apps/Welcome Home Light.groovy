
definition(name: "Welcome Home Light", namespace: "iotsan.corpus", author: "Community",
    description: "Turn on entry lights when someone arrives.", category: "Convenience")
preferences {
    section("Presence") { input "people", "capability.presenceSensor", multiple: true }
    section("Entry lights") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(people, "presence.present", arrivalHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.present", arrivalHandler) }
def arrivalHandler(evt) {
    lights.on()
}
