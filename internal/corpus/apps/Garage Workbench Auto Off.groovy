
definition(name: "Garage Workbench Auto Off", namespace: "iotsan.corpus", author: "Community",
    description: "Cut the workbench outlet after the garage goes quiet.", category: "Green Living")
preferences {
    section("Garage motion") { input "motion1", "capability.motionSensor" }
    section("Workbench outlet") { input "bench", "capability.switch" }
}
def installed() { subscribe(motion1, "motion.inactive", quiet) }
def updated() { unsubscribe(); subscribe(motion1, "motion.inactive", quiet) }
def quiet(evt) {
    runIn(1800, benchOff)
}
def benchOff() {
    if (motion1.currentMotion == "inactive") {
        bench.off()
    }
}
