
definition(name: "CO Alert", namespace: "iotsan.corpus", author: "Community",
    description: "Alarm and notify on carbon monoxide.", category: "Safety & Security")
preferences {
    section("CO detectors") { input "cos", "capability.carbonMonoxideDetector", multiple: true }
    section("Siren") { input "siren", "capability.alarm" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { subscribe(cos, "carbonMonoxide.detected", coHandler) }
def updated() { unsubscribe(); subscribe(cos, "carbonMonoxide.detected", coHandler) }
def coHandler(evt) {
    siren.siren()
    if (phone) {
        sendSms(phone, "CARBON MONOXIDE at ${evt.displayName}!")
    }
    sendPush("CARBON MONOXIDE at ${evt.displayName}!")
}
