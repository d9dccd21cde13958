package typeinfer_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"iotsan/internal/corpus"
	"iotsan/internal/smartapp"
	"iotsan/internal/typeinfer"
)

// signatures translates src and renders Infer's signatures one per
// method, sorted by name, in cmd/iotsan-translate's format.
func signatures(t *testing.T, src string) []string {
	t.Helper()
	app, err := smartapp.Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	sigs := typeinfer.Infer(app)
	var out []string
	for _, name := range slices.Sorted(maps.Keys(sigs)) {
		out = append(out, fmt.Sprintf("%s%v -> %s", name, sigs[name].Params, sigs[name].Return))
	}
	return out
}

func checkSignatures(t *testing.T, src string, want []string) {
	t.Helper()
	if got := signatures(t, src); !slices.Equal(got, want) {
		t.Errorf("signatures:\ngot  %q\nwant %q", got, want)
	}
}

// TestInferVirtualThermostat: the evaluate helper's parameters are
// decimal, flowing in from its call sites (evt.numericValue, the
// temperature attribute, the decimal setpoint inputs), and
// hasBeenRecentMotion returns a comparison.
func TestInferVirtualThermostat(t *testing.T) {
	checkSignatures(t, corpus.MustSource("Virtual Thermostat"), []string{
		"evaluate[decimal decimal] -> def",
		"hasBeenRecentMotion[] -> boolean",
		"installed[] -> def",
		"motionHandler[def] -> def",
		"temperatureHandler[def] -> def",
		"updated[] -> def",
	})
}

// TestInferDeviceListReturns: return types derived from a multiple
// device input — an attribute read spread over the list, and the element
// a find closure selects.
func TestInferDeviceListReturns(t *testing.T) {
	checkSignatures(t, `
definition(name: "Coldest Room", namespace: "t", author: "t", description: "t", category: "t")
preferences {
    section("Sensors") { input "sensors", "capability.temperatureMeasurement", multiple: true }
    section("Doors") { input "doors", "capability.contactSensor", multiple: true }
}
def installed() { subscribe(sensors, "temperature", handler) }
def temperatures() { return sensors.currentTemperature }
def firstOpen() { doors.find { it.currentContact == "open" } }
def handler(evt) {
    if (firstOpen() != null && temperatures().size() > 0) { log.debug "open" }
}
`, []string{
		"firstOpen[] -> Device<contactSensor>",
		"handler[def] -> def",
		"installed[] -> def",
		"temperatures[] -> decimal[]",
	})
}
