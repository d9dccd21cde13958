
definition(name: "Sleep Mode by Sensor", namespace: "iotsan.corpus", author: "Community",
    description: "Enter Night mode when the sleep sensor says you are asleep.", category: "Mode Magic")
preferences {
    section("Sleep sensor") { input "sleep1", "capability.sleepSensor" }
    section("Night mode") { input "nightMode", "mode", title: "Mode?" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() { subscribe(sleep1, "sleeping", sleepHandler) }
def sleepHandler(evt) {
    if (evt.value == "sleeping") {
        if (location.mode != nightMode) {
            setLocationMode(nightMode)
        }
    } else if (location.mode == nightMode) {
        setLocationMode("Home")
    }
}
