
definition(
    name: "Energy Saver",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Turn things off when your energy use goes above a threshold.",
    category: "Green Living"
)

preferences {
    section("When power consumption exceeds...") {
        input "meter", "capability.powerMeter", title: "Meter"
        input "threshold", "number", title: "Watts?"
    }
    section("Turn off...") {
        input "switches", "capability.switch", multiple: true
    }
}

def installed() {
    subscribe(meter, "power", powerHandler)
}

def updated() {
    unsubscribe()
    subscribe(meter, "power", powerHandler)
}

def powerHandler(evt) {
    def meterValue = evt.numericValue
    if (meterValue > threshold) {
        log.debug "${meter} reported ${meterValue} W, above threshold; turning things off"
        switches.off()
    }
}
