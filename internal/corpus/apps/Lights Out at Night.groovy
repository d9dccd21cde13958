
definition(name: "Lights Out at Night", namespace: "iotsan.corpus", author: "Community",
    description: "Turn all lights off when entering Night mode.", category: "Mode Magic")
preferences {
    section("Lights") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(location, "mode.Night", nightHandler) }
def updated() { unsubscribe(); subscribe(location, "mode.Night", nightHandler) }
def nightHandler(evt) {
    lights.off()
}
