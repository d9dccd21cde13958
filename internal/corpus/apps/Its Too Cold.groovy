
definition(
    name: "It's Too Cold",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Monitor the temperature and get a text message when it drops below your setting, and turn on a heater.",
    category: "Convenience"
)

preferences {
    section("Monitor the temperature...") {
        input "temperatureSensor1", "capability.temperatureMeasurement"
    }
    section("When the temperature drops below...") {
        input "temperature1", "number", title: "Temperature?"
    }
    section("Text me at (optional)") {
        input "phone1", "phone", title: "Phone number?", required: false
    }
    section("Turn on a heater (optional)") {
        input "heaterOutlet", "capability.switch", required: false
    }
}

def installed() {
    subscribe(temperatureSensor1, "temperature", temperatureHandler)
}

def updated() {
    unsubscribe()
    subscribe(temperatureSensor1, "temperature", temperatureHandler)
}

def temperatureHandler(evt) {
    def tooCold = temperature1
    def mySwitch = settings.heaterOutlet
    if (evt.numericValue <= tooCold) {
        log.debug "Temperature dropped below $tooCold: sending SMS and activating $mySwitch"
        if (phone1) {
            sendSms(phone1, "${temperatureSensor1.displayName} is too cold, reporting a temperature of ${evt.value}")
        }
        if (heaterOutlet) {
            heaterOutlet.on()
        }
    }
}
