
definition(name: "Panic Button", namespace: "iotsan.corpus", author: "Community",
    description: "Holding the bedside button sounds every siren.", category: "Safety & Security")
preferences {
    section("Button") { input "button1", "capability.button" }
    section("Sirens") { input "sirens", "capability.alarm", multiple: true }
}
def installed() { subscribe(button1, "button.held", panicHandler) }
def updated() { unsubscribe(); subscribe(button1, "button.held", panicHandler) }
def panicHandler(evt) {
    sirens.each { it.both() }
    sendPush("PANIC button held!")
}
