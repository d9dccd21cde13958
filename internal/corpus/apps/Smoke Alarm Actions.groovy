
definition(name: "Smoke Alarm Actions", namespace: "smartthings", author: "SmartThings",
    description: "Sound the siren and alert everyone when smoke is detected.", category: "Safety & Security")
preferences {
    section("Smoke detectors") { input "smokes", "capability.smokeDetector", multiple: true }
    section("Siren") { input "siren", "capability.alarm" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { subscribe(smokes, "smoke.detected", smokeHandler) }
def updated() { unsubscribe(); subscribe(smokes, "smoke.detected", smokeHandler) }
def smokeHandler(evt) {
    siren.both()
    if (phone) {
        sendSms(phone, "SMOKE detected by ${evt.displayName}!")
    }
    sendPush("SMOKE detected by ${evt.displayName}!")
}
