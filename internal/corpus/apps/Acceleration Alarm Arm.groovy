
definition(name: "Acceleration Alarm Arm", namespace: "iotsan.corpus", author: "Community",
    description: "While Away, treat safe-box movement as tampering.", category: "Safety & Security")
preferences {
    section("Safe box accel") { input "accel", "capability.accelerationSensor" }
    section("Siren") { input "siren", "capability.alarm" }
}
def installed() { subscribe(accel, "acceleration.active", tamper) }
def updated() { unsubscribe(); subscribe(accel, "acceleration.active", tamper) }
def tamper(evt) {
    if (location.mode == "Away") {
        siren.siren()
        sendPush("Safe box moved while away!")
    }
}
