
definition(name: "Sleepy Time Media Pause", namespace: "iotsan.corpus", author: "Community",
    description: "Pause music when the sleep sensor detects sleep.", category: "Convenience")
preferences {
    section("Sleep sensor") { input "sleep1", "capability.sleepSensor" }
    section("Player") { input "player", "capability.musicPlayer" }
}
def installed() { subscribe(sleep1, "sleeping.sleeping", asleep) }
def updated() { unsubscribe(); subscribe(sleep1, "sleeping.sleeping", asleep) }
def asleep(evt) {
    player.pause()
}
