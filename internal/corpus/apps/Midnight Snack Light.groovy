
definition(name: "Midnight Snack Light", namespace: "iotsan.corpus", author: "Community",
    description: "Kitchen light comes on softly when the fridge opens at night.", category: "Convenience")
preferences {
    section("Fridge contact") { input "fridge", "capability.contactSensor" }
    section("Kitchen dimmer") { input "dimmer", "capability.switchLevel" }
}
def installed() { subscribe(fridge, "contact.open", fridgeHandler) }
def updated() { unsubscribe(); subscribe(fridge, "contact.open", fridgeHandler) }
def fridgeHandler(evt) {
    if (location.mode == "Night") {
        dimmer.setLevel(20)
        dimmer.on()
        runIn(300, lightOff)
    }
}
def lightOff() {
    dimmer.off()
}
