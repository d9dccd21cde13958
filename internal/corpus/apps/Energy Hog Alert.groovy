
definition(name: "Energy Hog Alert", namespace: "iotsan.corpus", author: "Community",
    description: "Warn when an appliance draws too much power.", category: "Green Living")
preferences {
    section("Meter") { input "meter", "capability.powerMeter" }
    section("Watts") { input "watts", "number", title: "Threshold" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { subscribe(meter, "power", powerHandler) }
def updated() { unsubscribe(); subscribe(meter, "power", powerHandler) }
def powerHandler(evt) {
    if (evt.numericValue > watts) {
        if (phone) {
            sendSms(phone, "Power draw is ${evt.value}W, above ${watts}W")
        } else {
            sendPush("Power draw is ${evt.value}W")
        }
    }
}
