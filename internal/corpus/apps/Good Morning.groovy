
definition(name: "Good Morning", namespace: "smartthings", author: "SmartThings",
    description: "Leave Night mode when things start happening in the morning.", category: "Mode Magic")
preferences {
    section("Motion here means we're up") { input "motions", "capability.motionSensor", multiple: true }
    section("Morning mode") { input "morningMode", "mode", title: "Mode?" }
}
def installed() { subscribe(motions, "motion.active", motionHandler) }
def updated() { unsubscribe(); subscribe(motions, "motion.active", motionHandler) }
def motionHandler(evt) {
    if (location.mode == "Night" && location.mode != morningMode) {
        setLocationMode(morningMode)
        sendPush("Good morning! Mode changed to ${morningMode}")
    }
}
