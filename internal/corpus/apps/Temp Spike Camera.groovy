
definition(name: "Temp Spike Camera", namespace: "iotsan.corpus", author: "Community",
    description: "Take a photo when the server closet overheats.", category: "Safety & Security")
preferences {
    section("Closet sensor") { input "sensor", "capability.temperatureMeasurement" }
    section("Camera") { input "camera", "capability.imageCapture" }
    section("Limit") { input "limit", "number", title: "Degrees" }
}
def installed() { subscribe(sensor, "temperature", tempHandler) }
def updated() { unsubscribe(); subscribe(sensor, "temperature", tempHandler) }
def tempHandler(evt) {
    if (evt.numericValue > limit) {
        camera.take()
        sendPush("Closet at ${evt.value} degrees; snapshot taken")
    }
}
