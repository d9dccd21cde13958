
definition(name: "Tamper Text", namespace: "iotsan.corpus", author: "Community",
    description: "Text me when the alarm box itself is moved.", category: "Safety & Security")
preferences {
    section("Alarm box accel") { input "accel", "capability.accelerationSensor" }
    section("Phone") { input "phone", "phone" }
}
def installed() { subscribe(accel, "acceleration.active", tamperHandler) }
def updated() { unsubscribe(); subscribe(accel, "acceleration.active", tamperHandler) }
def tamperHandler(evt) {
    sendSms(phone, "Alarm box tampering detected")
}
