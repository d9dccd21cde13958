
definition(name: "Away Media Stop", namespace: "iotsan.corpus", author: "Community",
    description: "Stop all media when the house goes to Away.", category: "Convenience")
preferences {
    section("Players") { input "players", "capability.musicPlayer", multiple: true }
}
def installed() { subscribe(location, "mode.Away", awayHandler) }
def updated() { unsubscribe(); subscribe(location, "mode.Away", awayHandler) }
def awayHandler(evt) {
    players.each { it.stop() }
}
