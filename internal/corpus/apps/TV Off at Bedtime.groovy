
definition(name: "TV Off at Bedtime", namespace: "iotsan.corpus", author: "Community",
    description: "Stop the media player when the house enters Night mode.", category: "Convenience")
preferences {
    section("Player") { input "player", "capability.musicPlayer" }
}
def installed() { subscribe(location, "mode.Night", nightHandler) }
def updated() { unsubscribe(); subscribe(location, "mode.Night", nightHandler) }
def nightHandler(evt) {
    player.stop()
}
