
definition(name: "Mode Aware Siren Test", namespace: "iotsan.corpus", author: "Community",
    description: "Tapping the app strobes the siren briefly, but never at night.", category: "Safety & Security")
preferences {
    section("Siren") { input "siren", "capability.alarm" }
}
def installed() { subscribe(app, appTouch) }
def updated() { unsubscribe(); subscribe(app, appTouch) }
def appTouch(evt) {
    if (location.mode != "Night") {
        siren.strobe()
        runIn(60, sirenOff)
    }
}
def sirenOff() {
    siren.off()
}
