
definition(name: "Gentle Wake Music", namespace: "iotsan.corpus", author: "Community",
    description: "Start soft music when the sleeper wakes.", category: "Convenience")
preferences {
    section("Sleep sensor") { input "sleep1", "capability.sleepSensor" }
    section("Player") { input "player", "capability.musicPlayer" }
}
def installed() { subscribe(sleep1, "sleeping.not sleeping", awake) }
def updated() { unsubscribe(); subscribe(sleep1, "sleeping.not sleeping", awake) }
def awake(evt) {
    if (location.mode == "Night") {
        setLocationMode("Home")
    }
    player.play()
}
