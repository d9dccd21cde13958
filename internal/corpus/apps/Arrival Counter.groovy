
definition(name: "Arrival Counter", namespace: "iotsan.corpus", author: "Community",
    description: "Count comings and goings.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (evt.value == "present") {
        state.arrivals = (state.arrivals ?: 0) + 1
    } else {
        state.departures = (state.departures ?: 0) + 1
    }
}
