
definition(name: "Mode Text Alerts", namespace: "iotsan.corpus", author: "Community",
    description: "Text me every time the location mode changes.", category: "Convenience")
preferences {
    section("Phone") { input "phone", "phone" }
}
def installed() { subscribe(location, "mode", modeHandler) }
def updated() { unsubscribe(); subscribe(location, "mode", modeHandler) }
def modeHandler(evt) {
    sendSms(phone, "Mode changed to ${evt.value}")
}
