
definition(name: "Dark Arrival", namespace: "iotsan.corpus", author: "Community",
    description: "When someone arrives and it is dark, light the path and unlock.", category: "Convenience")
preferences {
    section("Presence") { input "person", "capability.presenceSensor" }
    section("Path lights") { input "lights", "capability.switch", multiple: true }
    section("Light sensor") { input "lux", "capability.illuminanceMeasurement" }
    section("Lock") { input "lock1", "capability.lock", required: false }
}
def installed() { subscribe(person, "presence.present", arrival) }
def updated() { unsubscribe(); subscribe(person, "presence.present", arrival) }
def arrival(evt) {
    if (lux.currentIlluminance < 40) {
        lights.on()
    }
    if (lock1) {
        lock1.unlock()
    }
}
