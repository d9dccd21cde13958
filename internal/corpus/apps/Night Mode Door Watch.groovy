
definition(name: "Night Mode Door Watch", namespace: "iotsan.corpus", author: "Community",
    description: "Turn the porch light on if a door opens during Night mode.", category: "Safety & Security")
preferences {
    section("Doors") { input "doors", "capability.contactSensor", multiple: true }
    section("Porch light") { input "light", "capability.switch" }
}
def installed() { subscribe(doors, "contact.open", openHandler) }
def updated() { unsubscribe(); subscribe(doors, "contact.open", openHandler) }
def openHandler(evt) {
    if (location.mode == "Night") {
        light.on()
    }
}
