
definition(name: "Double Tap Big Off", namespace: "iotsan.corpus", author: "Community",
    description: "A second button push within the window turns everything off.", category: "Convenience")
preferences {
    section("Button") { input "button1", "capability.button" }
    section("Everything") { input "switches", "capability.switch", multiple: true }
}
def installed() { subscribe(button1, "button.pushed", tapHandler) }
def updated() { unsubscribe(); subscribe(button1, "button.pushed", tapHandler) }
def tapHandler(evt) {
    def taps = state.taps ?: 0
    taps = taps + 1
    state.taps = taps
    if (taps >= 2) {
        switches.off()
        state.taps = 0
    } else {
        runIn(10, resetTaps)
    }
}
def resetTaps() {
    state.taps = 0
}
