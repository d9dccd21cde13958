package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"iotsan"
)

func TestTable7aScaleRatios(t *testing.T) {
	rows, mean, err := RunTable7a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NewSize <= 0 || r.NewSize > r.OriginalSize {
			t.Errorf("group %d: new=%d orig=%d", r.Group, r.NewSize, r.OriginalSize)
		}
		t.Logf("group %d: %d -> %d (%.1fx)", r.Group, r.OriginalSize, r.NewSize, r.Ratio)
	}
	if mean < 1.5 {
		t.Errorf("mean scale ratio %.2f; paper reports 3.4x, want >= 1.5x", mean)
	}
	t.Logf("mean scale ratio: %.2f", mean)
}

// The engine configuration handed to an experiment must reach the
// checker: a tiered store given to RunTable8 leaves its tier files
// under the store directory and explores the in-memory state count.
func TestTable8HonoursStoreOptions(t *testing.T) {
	const stateCap = 400_000
	mem, err := RunTable8(iotsan.Options{}, []int{3}, stateCap)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tiered, err := RunTable8(iotsan.Options{Store: iotsan.StoreTiered, StoreDir: dir, MemBudget: 64 << 10}, []int{3}, stateCap)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "group-000")); err != nil || !fi.IsDir() {
		t.Errorf("tiered run left no %s/group-000 directory (err=%v): store options did not reach the engine", dir, err)
	}
	if tiered[0].States != mem[0].States || tiered[0].Truncated != mem[0].Truncated {
		t.Errorf("tiered run: states=%d truncated=%v, in-memory run: states=%d truncated=%v",
			tiered[0].States, tiered[0].Truncated, mem[0].States, mem[0].Truncated)
	}
}
