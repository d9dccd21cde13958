
definition(
    name: "Smart Security",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Alerts you when there is motion or an opening while you are away.",
    category: "Safety & Security"
)

preferences {
    section("Sense motion with...") {
        input "motions", "capability.motionSensor", multiple: true, required: false
    }
    section("Or door openings with...") {
        input "contacts", "capability.contactSensor", multiple: true, required: false
    }
    section("Sound the alarm") {
        input "alarms", "capability.alarm", multiple: true, required: false
    }
    section("Notify this number") {
        input "phone", "phone", title: "Phone number", required: false
    }
}

def installed() {
    initialize()
}

def updated() {
    unsubscribe()
    initialize()
}

def initialize() {
    if (motions) {
        subscribe(motions, "motion.active", intruderMotion)
    }
    if (contacts) {
        subscribe(contacts, "contact.open", intruderContact)
    }
}

def intruderMotion(evt) {
    if (location.mode == "Away") {
        triggerAlarm()
    }
}

def intruderContact(evt) {
    if (location.mode == "Away") {
        triggerAlarm()
    }
}

private triggerAlarm() {
    alarms.both()
    if (phone) {
        sendSms(phone, "Intruder detected at home!")
    }
    sendPush("Intruder detected at home!")
}
