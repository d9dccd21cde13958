
definition(name: "Button Scene Setter", namespace: "iotsan.corpus", author: "Community",
    description: "Push for movie scene, hold for full brightness.", category: "Convenience")
preferences {
    section("Button") { input "button1", "capability.button" }
    section("Dimmers") { input "dimmers", "capability.switchLevel", multiple: true }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() { subscribe(button1, "button", buttonHandler) }
def buttonHandler(evt) {
    if (evt.value == "pushed") {
        dimmers.each { it.setLevel(20) }
    } else if (evt.value == "held") {
        dimmers.each { it.setLevel(100) }
    }
}
