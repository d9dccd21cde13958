
definition(name: "Plant Minder", namespace: "iotsan.corpus", author: "Community",
    description: "Remind me to water the plants when their soil dries out.", category: "Green Living")
preferences {
    section("Plant soil sensor") { input "soil", "capability.soilMoistureMeasurement" }
    section("Phone") { input "phone", "phone", required: false }
}
def installed() { subscribe(soil, "soilMoisture", soilHandler) }
def updated() { unsubscribe(); subscribe(soil, "soilMoisture", soilHandler) }
def soilHandler(evt) {
    if (evt.numericValue < 15) {
        if (phone) {
            sendSms(phone, "The plants are thirsty (${evt.value}%)")
        } else {
            sendPush("The plants are thirsty")
        }
    }
}
