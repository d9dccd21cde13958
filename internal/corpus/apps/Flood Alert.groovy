
definition(name: "Flood Alert", namespace: "smartthings", author: "SmartThings",
    description: "Close the water main and alert on a leak.", category: "Safety & Security")
preferences {
    section("Leak sensors") { input "leaks", "capability.waterSensor", multiple: true }
    section("Water main valve") { input "valve1", "capability.valve" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { subscribe(leaks, "water.wet", leakHandler) }
def updated() { unsubscribe(); subscribe(leaks, "water.wet", leakHandler) }
def leakHandler(evt) {
    valve1.close()
    if (phone) {
        sendSms(phone, "Water leak at ${evt.displayName}; main valve closed")
    }
    sendPush("Water leak at ${evt.displayName}")
}
