
definition(name: "Smoke Heater Cutoff", namespace: "iotsan.corpus", author: "Community",
    description: "Kill heater and high-power outlets when smoke is detected.", category: "Safety & Security")
preferences {
    section("Smoke detector") { input "smoke1", "capability.smokeDetector" }
    section("Cut these outlets") { input "outlets", "capability.switch", multiple: true }
}
def installed() { subscribe(smoke1, "smoke.detected", smokeHandler) }
def updated() { unsubscribe(); subscribe(smoke1, "smoke.detected", smokeHandler) }
def smokeHandler(evt) {
    outlets.off()
}
