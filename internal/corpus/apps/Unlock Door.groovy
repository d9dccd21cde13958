
definition(
    name: "Unlock Door",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Unlocks the door upon user input.",
    category: "Safety & Security"
)

preferences {
    section("Which lock?") {
        input "lock1", "capability.lock", title: "Lock"
    }
}

def installed() {
    initialize()
}

def updated() {
    unsubscribe()
    initialize()
}

def initialize() {
    subscribe(app, appTouch)
    subscribe(location, "mode", changedLocationMode)
}

def appTouch(evt) {
    lock1.unlock()
}

def changedLocationMode(evt) {
    lock1.unlock()
}
