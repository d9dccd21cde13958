
definition(name: "Welcome Glow", namespace: "iotsan.corpus", author: "Community",
    description: "Glow the hall light for arrivals and notify.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Light") { input "light", "capability.switch" }
}
def installed() { subscribe(people, "presence.present", arrivalHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.present", arrivalHandler) }
def arrivalHandler(evt) {
    light.on()
    sendPush("Welcome home, ${evt.displayName}")
}
