
definition(name: "Open Sesame", namespace: "iotsan.corpus", author: "Community",
    description: "Tap the app to toggle the entry light and unlock the side door.", category: "Convenience")
preferences {
    section("Entry light") { input "light", "capability.switch" }
    section("Side door lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(app, appTouch) }
def updated() { unsubscribe(); subscribe(app, appTouch) }
def appTouch(evt) {
    if (light.currentSwitch == "on") {
        light.off()
    } else {
        light.on()
    }
    lock1.unlock()
}
