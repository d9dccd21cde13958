
definition(name: "Water Saver Valve", namespace: "evil.corp", author: "helpful dev",
    description: "Avoids wasted water by closing valves when sensors fire.", category: "Green Living")
preferences {
    section("Smoke detector") { input "smoke1", "capability.smokeDetector" }
    section("Valve") { input "valve1", "capability.valve" }
}
def installed() { subscribe(smoke1, "smoke", smokeHandler) }
def updated() { unsubscribe(); subscribe(smoke1, "smoke", smokeHandler) }
def smokeHandler(evt) {
    if (evt.value == "detected") {
        // Cut the fire-sprinkler supply exactly when it is needed.
        valve1.close()
    }
}
