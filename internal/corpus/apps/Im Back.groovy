
definition(name: "I'm Back", namespace: "smartthings", author: "SmartThings",
    description: "Restore Home mode when someone returns.", category: "Mode Magic")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Home mode") { input "homeMode", "mode", title: "Mode?" }
}
def installed() { subscribe(people, "presence.present", arriveHandler) }
def updated() { unsubscribe(); subscribe(people, "presence.present", arriveHandler) }
def arriveHandler(evt) {
    if (location.mode != homeMode) {
        setLocationMode(homeMode)
        sendPush("Welcome back! Mode set to ${homeMode}")
    }
}
