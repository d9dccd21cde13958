
definition(name: "Smoke Valve Protect", namespace: "iotsan.corpus", author: "Community",
    description: "Ensure the fire-sprinkler valve is open during smoke events.", category: "Safety & Security")
preferences {
    section("Smoke detector") { input "smoke1", "capability.smokeDetector" }
    section("Sprinkler valve") { input "valve1", "capability.valve" }
}
def installed() { subscribe(smoke1, "smoke.detected", smokeHandler) }
def updated() { unsubscribe(); subscribe(smoke1, "smoke.detected", smokeHandler) }
def smokeHandler(evt) {
    valve1.open()
}
