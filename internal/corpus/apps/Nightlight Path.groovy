
definition(name: "Nightlight Path", namespace: "iotsan.corpus", author: "Community",
    description: "Dim hallway light for night-time bathroom trips.", category: "Convenience")
preferences {
    section("Hall motion") { input "motion1", "capability.motionSensor" }
    section("Hall dimmer") { input "dimmer", "capability.switchLevel" }
}
def installed() { subscribe(motion1, "motion", motionHandler) }
def updated() { unsubscribe(); subscribe(motion1, "motion", motionHandler) }
def motionHandler(evt) {
    if (location.mode == "Night") {
        if (evt.value == "active") {
            dimmer.setLevel(15)
            dimmer.on()
        } else {
            dimmer.off()
        }
    }
}
