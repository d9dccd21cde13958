
definition(name: "Back Door Auto Close", namespace: "iotsan.corpus", author: "Community",
    description: "Close the automated back door when the mode turns Away.", category: "Safety & Security")
preferences {
    section("Back door") { input "door", "capability.doorControl" }
}
def installed() { subscribe(location, "mode.Away", awayHandler) }
def updated() { unsubscribe(); subscribe(location, "mode.Away", awayHandler) }
def awayHandler(evt) {
    if (door.currentDoor != "closed") {
        door.close()
    }
}
