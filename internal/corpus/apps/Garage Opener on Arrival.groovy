
definition(name: "Garage Opener on Arrival", namespace: "iotsan.corpus", author: "Community",
    description: "Open the garage when my car arrives.", category: "Convenience")
preferences {
    section("Car presence") { input "car", "capability.presenceSensor" }
    section("Garage") { input "garage", "capability.garageDoorControl" }
}
def installed() { subscribe(car, "presence.present", arriveHandler) }
def updated() { unsubscribe(); subscribe(car, "presence.present", arriveHandler) }
def arriveHandler(evt) {
    garage.open()
}
