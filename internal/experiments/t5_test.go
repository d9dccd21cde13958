package experiments

import (
	"testing"

	"iotsan"
)

func TestTable5OneGroupSmoke(t *testing.T) {
	res, err := RunTable5(iotsan.Options{}, 2, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("total violations=%d properties=%d removed=%v failure-extra=%d",
		res.TotalViolations, res.Properties, res.RemovedApps, res.FailureExtraProperties)
	if res.TotalViolations == 0 {
		t.Error("expected violations in group 1 (Unlock Door et al.)")
	}
}
