
definition(name: "Washer Vibration Done", namespace: "iotsan.corpus", author: "Community",
    description: "Use an acceleration sensor to catch the end of the wash cycle.", category: "Convenience")
preferences {
    section("Washer accel") { input "accel", "capability.accelerationSensor" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(accel, "acceleration.active", startedShaking)
    subscribe(accel, "acceleration.inactive", stoppedShaking)
}
def startedShaking(evt) {
    state.running = true
}
def stoppedShaking(evt) {
    if (state.running) {
        runIn(300, confirmDone)
    }
}
def confirmDone() {
    if (accel.currentAcceleration == "inactive" && state.running) {
        state.running = false
        if (phone) {
            sendSms(phone, "Washer finished")
        } else {
            sendPush("Washer finished")
        }
    }
}
