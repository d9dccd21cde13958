package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperTablesGolden runs iotsan-bench -table 5, 6, 7a and
// attribution and compares every line they print with
// testdata/tables.golden. Table 9 is pinned by internal/ifttt's
// TestTable9; Tables 7b and 8 print wall-clock times.
//
// testdata/tables.golden was written once from these four runs at the
// commit before the root package's table benchmarks were deleted:
//
//	for t in 5 6 7a attribution; do go run ./cmd/iotsan-bench -table $t; done >cmd/iotsan-bench/testdata/tables.golden
//
// A change that moves a count regenerates it with that command and
// lists each moved line, old → new, with its cause, in CHANGES.md.
func TestPaperTablesGolden(t *testing.T) {
	t.Run("unknown-table", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-table", "10"}, &stdout, &stderr); code != 2 {
			t.Errorf("-table 10 exited %d, want 2", code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-table 10 printed %q to stdout, want nothing", stdout.String())
		}
		if !strings.Contains(stderr.String(), `"10"`) {
			t.Errorf("-table 10 printed %q to stderr, want the unknown name", stderr.String())
		}
	})

	t.Run("tables", func(t *testing.T) {
		if raceEnabled {
			t.Skip("over 40 s under the race detector, where the output matched the golden")
		}
		var got bytes.Buffer
		for _, table := range []string{"5", "6", "7a", "attribution"} {
			var stderr bytes.Buffer
			if code := realMain([]string{"-table", table}, &got, &stderr); code != 0 {
				t.Fatalf("-table %s exited %d: %s", table, code, stderr.String())
			}
		}
		want, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
		if err != nil {
			t.Fatal(err)
		}
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		section := ""
		for i := range min(len(gotLines), len(wantLines)) {
			if strings.HasPrefix(wantLines[i], "==== ") {
				section = wantLines[i]
			}
			if gotLines[i] != wantLines[i] {
				t.Fatalf("line %d (%s) differs from the golden run\n got %q\nwant %q", i+1, section, gotLines[i], wantLines[i])
			}
		}
		if len(gotLines) != len(wantLines) {
			t.Fatalf("%d lines, the golden run %d", len(gotLines), len(wantLines))
		}
	})
}
