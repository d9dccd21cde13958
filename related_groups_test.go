package iotsan

import (
	"reflect"
	"testing"

	"iotsan/internal/depgraph"
	"iotsan/internal/smartapp"
)

// Two related sets whose sorted app names print alike — app names
// contain spaces — are still two related sets: keyed on the printed
// list, the second was dropped as a duplicate and never verified.
func TestRelatedAppGroupsKeepsNamesApart(t *testing.T) {
	sig := func(attr, value string) []smartapp.EventSig {
		return []smartapp.EventSig{{Attr: attr, Value: value}}
	}
	handlerApp := []string{"Good Night", "Lights", "Good", "Night Lights"}
	handlers := []smartapp.HandlerInfo{
		{Handler: "motionHandler", Inputs: sig("motion", "active"), Outputs: sig("switch", "on")},
		{Handler: "switchHandler", Inputs: sig("switch", "")},
		{Handler: "contactHandler", Inputs: sig("contact", "open"), Outputs: sig("lock", "locked")},
		{Handler: "lockHandler", Inputs: sig("lock", "")},
	}
	sys := &System{}
	for _, name := range handlerApp {
		sys.Apps = append(sys.Apps, AppInstance{App: name})
	}
	g := depgraph.Build(handlers)
	got := relatedAppGroups(sys, g, g.FinalSets(), handlerApp, false)
	want := [][]string{{"Good Night", "Lights"}, {"Good", "Night Lights"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("related sets = %q, want %q", got, want)
	}
}
