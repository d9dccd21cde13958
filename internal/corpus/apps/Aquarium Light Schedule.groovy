
definition(name: "Aquarium Light Schedule", namespace: "iotsan.corpus", author: "Community",
    description: "Aquarium lights follow the sun.", category: "Convenience")
preferences {
    section("Aquarium light") { input "light", "capability.switch" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(location, "sunrise", dayTime)
    subscribe(location, "sunset", nightTime)
}
def dayTime(evt) { light.on() }
def nightTime(evt) { light.off() }
