
definition(name: "Water Heater Leak Guard", namespace: "iotsan.corpus", author: "Community",
    description: "Leak at the water heater cuts power and notifies a plumber.", category: "Safety & Security")
preferences {
    section("Leak sensor") { input "leak1", "capability.waterSensor" }
    section("Heater outlet") { input "outlet", "capability.switch" }
    section("Plumber phone") { input "plumber", "phone", required: false }
}
def installed() { subscribe(leak1, "water.wet", leakHandler) }
def updated() { unsubscribe(); subscribe(leak1, "water.wet", leakHandler) }
def leakHandler(evt) {
    outlet.off()
    if (plumber) {
        sendSms(plumber, "Leak at the water heater")
    }
}
