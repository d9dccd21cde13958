
definition(name: "Night Arrival Greeting", namespace: "iotsan.corpus", author: "Community",
    description: "When arriving during Night mode, light the entry and leave Night mode.", category: "Mode Magic")
preferences {
    section("Presence") { input "person", "capability.presenceSensor" }
    section("Entry light") { input "light", "capability.switch" }
}
def installed() { subscribe(person, "presence.present", arrive) }
def updated() { unsubscribe(); subscribe(person, "presence.present", arrive) }
def arrive(evt) {
    if (location.mode == "Night") {
        light.on()
        setLocationMode("Home")
    }
}
