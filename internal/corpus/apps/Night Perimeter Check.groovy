
definition(name: "Night Perimeter Check", namespace: "iotsan.corpus", author: "Community",
    description: "Entering Night mode alerts if any entry is open.", category: "Safety & Security")
preferences {
    section("Entries") { input "entries", "capability.contactSensor", multiple: true }
}
def installed() { subscribe(location, "mode.Night", nightHandler) }
def updated() { unsubscribe(); subscribe(location, "mode.Night", nightHandler) }
def nightHandler(evt) {
    def open = entries.findAll { it.currentContact == "open" }
    if (open.size() > 0) {
        sendPush("Warning: ${open.size()} entries still open at bedtime")
    }
}
