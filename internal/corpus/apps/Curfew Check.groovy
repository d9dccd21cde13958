
definition(name: "Curfew Check", namespace: "iotsan.corpus", author: "Community",
    description: "Text me when the front door opens while the house is in Night mode.", category: "Safety & Security")
preferences {
    section("Front door") { input "contact1", "capability.contactSensor" }
    section("Phone") { input "phone", "phone" }
}
def installed() { subscribe(contact1, "contact.open", openHandler) }
def updated() { unsubscribe(); subscribe(contact1, "contact.open", openHandler) }
def openHandler(evt) {
    if (location.mode == "Night") {
        sendSms(phone, "Front door opened after curfew")
    }
}
