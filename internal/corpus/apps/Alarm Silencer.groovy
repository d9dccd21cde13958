
definition(name: "Alarm Silencer", namespace: "iotsan.corpus", author: "Community",
    description: "Silence the siren as soon as someone comes home.", category: "Safety & Security")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Siren") { input "siren", "capability.alarm" }
}
def installed() { subscribe(people, "presence.present", homeHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.present", homeHandler) }
def homeHandler(evt) {
    siren.off()
}
