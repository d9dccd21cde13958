
definition(name: "Garage Closer", namespace: "iotsan.corpus", author: "Community",
    description: "Close the garage when everyone has left.", category: "Safety & Security")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Garage") { input "garage", "capability.garageDoorControl" }
}
def installed() { subscribe(people, "presence.not present", leftHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.not present", leftHandler) }
def leftHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    if (!anyoneHome && garage.currentDoor != "closed") {
        garage.close()
        sendPush("Garage closed because everyone left")
    }
}
