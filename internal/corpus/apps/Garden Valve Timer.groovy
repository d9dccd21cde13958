
definition(name: "Garden Valve Timer", namespace: "iotsan.corpus", author: "Community",
    description: "Open the garden valve for a fixed watering window.", category: "Green Living")
preferences {
    section("Garden valve") { input "valve1", "capability.valve" }
    section("Minutes") { input "minutes1", "number", title: "Minutes" }
}
def installed() { subscribe(app, appTouch) }
def updated() { unsubscribe(); subscribe(app, appTouch) }
def appTouch(evt) {
    valve1.open()
    runIn(minutes1 * 60, closeValve)
}
def closeValve() {
    valve1.close()
}
