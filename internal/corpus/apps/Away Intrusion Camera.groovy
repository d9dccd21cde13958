
definition(name: "Away Intrusion Camera", namespace: "iotsan.corpus", author: "Community",
    description: "Photograph whoever moves while the house is empty.", category: "Safety & Security")
preferences {
    section("Motion") { input "motion1", "capability.motionSensor" }
    section("Camera") { input "camera", "capability.imageCapture" }
}
def installed() { subscribe(motion1, "motion.active", motionHandler) }
def updated() { unsubscribe(); subscribe(motion1, "motion.active", motionHandler) }
def motionHandler(evt) {
    if (location.mode == "Away") {
        camera.take()
    }
}
