
definition(name: "Laundry Monitor", namespace: "smartthings", author: "SmartThings",
    description: "Notify when the washer finishes, based on power draw.", category: "Convenience")
preferences {
    section("Washer meter") { input "meter", "capability.powerMeter" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { subscribe(meter, "power", powerHandler) }
def updated() { unsubscribe(); subscribe(meter, "power", powerHandler) }
def powerHandler(evt) {
    def watts = evt.numericValue
    if (watts > 50) {
        state.running = true
    } else if (state.running && watts < 10) {
        state.running = false
        if (phone) {
            sendSms(phone, "Laundry is done!")
        } else {
            sendPush("Laundry is done!")
        }
    }
}
