
definition(name: "Left It Open Light", namespace: "iotsan.corpus", author: "Community",
    description: "Blink the hallway light if the fridge door stays open.", category: "Convenience")
preferences {
    section("Fridge contact") { input "fridge", "capability.contactSensor" }
    section("Hall light") { input "light", "capability.switch" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(fridge, "contact.open", openHandler)
    subscribe(fridge, "contact.closed", closedHandler)
}
def openHandler(evt) {
    runIn(300, warn)
}
def closedHandler(evt) {
    unschedule()
}
def warn() {
    if (fridge.currentContact == "open") {
        light.on()
    }
}
