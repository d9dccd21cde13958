
definition(
    name: "Virtual Thermostat",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Control a space heater or window air conditioner in conjunction with any temperature sensor, like a SmartSense Multi.",
    category: "Green Living"
)

preferences {
    section("Choose a temperature sensor ... ") {
        input "sensor", "capability.temperatureMeasurement", title: "Sensor"
    }
    section("Select the heater or air conditioner outlet(s)... ") {
        input "outlets", "capability.switch", title: "Outlets", multiple: true
    }
    section("Set the desired temperature ...") {
        input "setpoint", "decimal", title: "Set Temp"
    }
    section("When there's been movement from (optional)") {
        input "motion", "capability.motionSensor", title: "Motion", required: false
    }
    section("Within this number of minutes ...") {
        input "minutes", "number", title: "Minutes", required: false
    }
    section("But never go below (or above if A/C) this value with or without motion ...") {
        input "emergencySetpoint", "decimal", title: "Emer Temp", required: false
    }
    section("Select 'heat' for a heater and 'cool' for an air conditioner ...") {
        input "mode", "enum", title: "Heating or cooling?", options: ["heat", "cool"]
    }
}

def installed() {
    subscribe(sensor, "temperature", temperatureHandler)
    if (motion) {
        subscribe(motion, "motion", motionHandler)
    }
}

def updated() {
    unsubscribe()
    subscribe(sensor, "temperature", temperatureHandler)
    if (motion) {
        subscribe(motion, "motion", motionHandler)
    }
}

def temperatureHandler(evt) {
    def isActive = hasBeenRecentMotion()
    if (isActive || emergencySetpoint) {
        evaluate(evt.numericValue, isActive ? setpoint : emergencySetpoint)
    } else {
        outlets.off()
    }
}

def motionHandler(evt) {
    if (evt.value == "active") {
        def lastTemp = sensor.currentTemperature
        if (lastTemp != null) {
            evaluate(lastTemp, setpoint)
        }
    } else if (evt.value == "inactive") {
        def isActive = hasBeenRecentMotion()
        if (isActive || emergencySetpoint) {
            def lastTemp = sensor.currentTemperature
            if (lastTemp != null) {
                evaluate(lastTemp, isActive ? setpoint : emergencySetpoint)
            }
        } else {
            outlets.off()
        }
    }
}

private evaluate(currentTemp, desiredTemp) {
    log.debug "EVALUATE($currentTemp, $desiredTemp)"
    def threshold = 1.0
    if (mode == "cool") {
        if (currentTemp - desiredTemp >= threshold) {
            outlets.on()
        } else if (desiredTemp - currentTemp >= threshold) {
            outlets.off()
        }
    } else {
        if (desiredTemp - currentTemp >= threshold) {
            outlets.on()
        } else if (currentTemp - desiredTemp >= threshold) {
            outlets.off()
        }
    }
}

private hasBeenRecentMotion() {
    def isActive = false
    if (motion && minutes) {
        if (motion.currentMotion == "active") {
            isActive = true
        }
    } else {
        isActive = true
    }
    return isActive
}
