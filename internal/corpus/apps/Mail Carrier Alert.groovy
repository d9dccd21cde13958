
definition(name: "Mail Carrier Alert", namespace: "iotsan.corpus", author: "Community",
    description: "Chime when the mailbox opens during the day.", category: "Convenience")
preferences {
    section("Mailbox contact") { input "mailbox", "capability.contactSensor" }
    section("Chime") { input "chime", "capability.tone" }
}
def installed() { subscribe(mailbox, "contact.open", mailHandler) }
def updated() { unsubscribe(); subscribe(mailbox, "contact.open", mailHandler) }
def mailHandler(evt) {
    if (location.mode != "Night") {
        chime.beep()
    }
}
