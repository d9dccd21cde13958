
definition(name: "Driveway Motion Mode Check", namespace: "iotsan.corpus", author: "Community",
    description: "Notify on driveway motion while nobody is home.", category: "Safety & Security")
preferences {
    section("Driveway motion") { input "motion1", "capability.motionSensor" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { subscribe(motion1, "motion.active", motionHandler) }
def updated() { unsubscribe(); subscribe(motion1, "motion.active", motionHandler) }
def motionHandler(evt) {
    if (location.mode == "Away") {
        if (phone) {
            sendSms(phone, "Driveway motion while you are away")
        } else {
            sendPush("Driveway motion while you are away")
        }
    }
}
