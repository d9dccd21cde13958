
definition(name: "Double Duty Contact", namespace: "iotsan.corpus", author: "Community",
    description: "One contact sensor drives a light and notifies after hours.", category: "Convenience")
preferences {
    section("Contact") { input "contact1", "capability.contactSensor" }
    section("Light") { input "light", "capability.switch" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { subscribe(contact1, "contact", bothHandler) }
def updated() { unsubscribe(); subscribe(contact1, "contact", bothHandler) }
def bothHandler(evt) {
    if (evt.value == "open") {
        light.on()
        if (location.mode == "Night" && phone) {
            sendSms(phone, "Door opened during the night")
        }
    } else {
        light.off()
    }
}
