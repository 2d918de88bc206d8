package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cgraph/internal/testutil"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/tables.golden from the harness")

// TestTablesGolden pins every table cgraph-bench prints, at test scale,
// byte for byte: a change to the engine, the baselines or the cost model
// that moves a paper figure shows up here, and an intended move
// regenerates testdata/tables.golden (-update-golden) so the diff is
// reviewed with the change.
func TestTablesGolden(t *testing.T) {
	testutil.SkipUnderRace(t)
	tabs, err := All(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, tab := range tabs {
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update-golden)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, %s has %d", len(gl), path, len(wl))
	}
}
