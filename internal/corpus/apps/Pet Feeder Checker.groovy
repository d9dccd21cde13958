
definition(name: "Pet Feeder Checker", namespace: "iotsan.corpus", author: "Community",
    description: "The feeder outlet runs twice a day; alert if it draws no power.", category: "Convenience")
preferences {
    section("Feeder outlet") { input "feeder", "capability.switch" }
    section("Feeder meter") { input "meter", "capability.powerMeter" }
}
def installed() { initialize() }
def updated() { unsubscribe(); initialize() }
def initialize() {
    subscribe(location, "sunrise", feedTime)
    subscribe(location, "sunset", feedTime)
}
def feedTime(evt) {
    feeder.on()
    runIn(300, verifyFeed)
}
def verifyFeed() {
    if (meter.currentPower < 5) {
        sendPush("Feeder did not draw power - check it!")
    }
    feeder.off()
}
