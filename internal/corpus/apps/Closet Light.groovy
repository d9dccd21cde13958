
definition(name: "Closet Light", namespace: "iotsan.corpus", author: "Community",
    description: "Light follows the closet door: on when open, off when closed.", category: "Convenience")
preferences {
    section("Closet door") { input "door", "capability.contactSensor" }
    section("Closet light") { input "light", "capability.switch" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(door, "contact.open", onHandler)
    subscribe(door, "contact.closed", offHandler)
}
def onHandler(evt) { light.on() }
def offHandler(evt) { light.off() }
