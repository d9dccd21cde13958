
definition(name: "Smoke Lights Beacon", namespace: "iotsan.corpus", author: "Community",
    description: "Turn every light on during a smoke event to aid escape.", category: "Safety & Security")
preferences {
    section("Smoke detector") { input "smoke1", "capability.smokeDetector" }
    section("Lights") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(smoke1, "smoke", smokeHandler) }
def updated() { unsubscribe(); subscribe(smoke1, "smoke", smokeHandler) }
def smokeHandler(evt) {
    if (evt.value == "detected") {
        lights.on()
    }
}
