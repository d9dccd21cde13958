
definition(name: "Alarm Auto Reset", namespace: "iotsan.corpus", author: "Community",
    description: "Stop the siren a few minutes after it starts.", category: "Safety & Security")
preferences {
    section("Siren") { input "siren", "capability.alarm" }
    section("Minutes") { input "minutes1", "number", title: "Minutes" }
}
def installed() { subscribe(siren, "alarm", alarmHandler) }
def updated() { unsubscribe(); subscribe(siren, "alarm", alarmHandler) }
def alarmHandler(evt) {
    if (evt.value != "off") {
        runIn(minutes1 * 60, resetAlarm)
    }
}
def resetAlarm() {
    siren.off()
}
