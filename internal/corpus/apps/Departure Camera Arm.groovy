
definition(name: "Departure Camera Arm", namespace: "iotsan.corpus", author: "Community",
    description: "Prime the camera whenever the mode turns to Away.", category: "Safety & Security")
preferences {
    section("Camera") { input "camera", "capability.imageCapture" }
}
def installed() { subscribe(location, "mode.Away", armHandler) }
def updated() { unsubscribe(); subscribe(location, "mode.Away", armHandler) }
def armHandler(evt) {
    camera.take()
}
