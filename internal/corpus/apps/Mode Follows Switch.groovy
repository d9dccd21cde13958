
definition(name: "Mode Follows Switch", namespace: "iotsan.corpus", author: "Community",
    description: "A physical guest switch forces Home mode while on.", category: "Mode Magic")
preferences {
    section("Guest switch") { input "guest", "capability.switch" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(guest, "switch.on", guestOn)
    subscribe(guest, "switch.off", guestOff)
}
def guestOn(evt) {
    state.prevMode = location.mode
    if (location.mode != "Home") {
        setLocationMode("Home")
    }
}
def guestOff(evt) {
    def prev = state.prevMode
    if (prev != null && location.mode != prev) {
        setLocationMode(prev)
    }
}
