
definition(name: "Dim With Me", namespace: "smartthings", author: "SmartThings",
    description: "Follow a master dimmer's level with slave dimmers.", category: "Convenience")
preferences {
    section("Master") { input "master", "capability.switchLevel" }
    section("Slaves") { input "slaves", "capability.switchLevel", multiple: true }
}
def installed() { subscribe(master, "level", levelHandler) }
def updated() { unsubscribe(); subscribe(master, "level", levelHandler) }
def levelHandler(evt) {
    slaves.each { it.setLevel(evt.numericValue) }
}
