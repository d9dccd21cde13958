
definition(name: "Window AC Contact Guard", namespace: "iotsan.corpus", author: "Community",
    description: "Don't run the window AC while its window is open.", category: "Green Living")
preferences {
    section("Window contact") { input "window", "capability.contactSensor" }
    section("AC outlet") { input "ac", "capability.switch" }
}
def installed() { subscribe(window, "contact.open", windowOpen) }
def updated() { unsubscribe(); subscribe(window, "contact.open", windowOpen) }
def windowOpen(evt) {
    if (ac.currentSwitch == "on") {
        ac.off()
        sendPush("AC stopped: the window is open")
    }
}
