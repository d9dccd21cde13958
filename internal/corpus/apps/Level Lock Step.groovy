
definition(name: "Level Lock Step", namespace: "iotsan.corpus", author: "Community",
    description: "Tie the lamp dimmer to the media player state.", category: "Convenience")
preferences {
    section("Player") { input "player", "capability.musicPlayer" }
    section("Lamp dimmer") { input "dimmer", "capability.switchLevel" }
}
def installed() { subscribe(player, "status", statusHandler) }
def updated() { unsubscribe(); subscribe(player, "status", statusHandler) }
def statusHandler(evt) {
    if (evt.value == "playing") {
        dimmer.setLevel(30)
    } else {
        dimmer.setLevel(80)
    }
}
