
definition(name: "Glass Break Response", namespace: "iotsan.corpus", author: "Community",
    description: "Treat window acceleration while Away as a break-in.", category: "Safety & Security")
preferences {
    section("Window sensor") { input "accel", "capability.accelerationSensor" }
    section("Siren") { input "siren", "capability.alarm" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { subscribe(accel, "acceleration.active", breakHandler) }
def updated() { unsubscribe(); subscribe(accel, "acceleration.active", breakHandler) }
def breakHandler(evt) {
    if (location.mode == "Away") {
        siren.both()
        if (phone) {
            sendSms(phone, "Possible glass break at ${evt.displayName}")
        }
    }
}
