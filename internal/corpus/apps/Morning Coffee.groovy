
definition(name: "Morning Coffee", namespace: "iotsan.corpus", author: "Community",
    description: "Start the coffee maker with the first morning motion.", category: "Convenience")
preferences {
    section("Kitchen motion") { input "motion1", "capability.motionSensor" }
    section("Coffee outlet") { input "coffee", "capability.switch" }
}
def installed() { subscribe(motion1, "motion.active", firstMotion) }
def updated() { unsubscribe(); subscribe(motion1, "motion.active", firstMotion) }
def firstMotion(evt) {
    if (location.mode == "Night" || state.brewed != true) {
        coffee.on()
        state.brewed = true
        runIn(1200, coffeeOff)
    }
}
def coffeeOff() {
    coffee.off()
    state.brewed = false
}
