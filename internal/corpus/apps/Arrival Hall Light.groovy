
definition(name: "Arrival Hall Light", namespace: "iotsan.corpus", author: "Community",
    description: "Light the hall when someone arrives.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Light") { input "light", "capability.switch" }
}
def installed() { subscribe(people, "presence.present", arrivalHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.present", arrivalHandler) }
def arrivalHandler(evt) {
    light.on()
}
