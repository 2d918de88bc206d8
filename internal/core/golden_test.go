package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/model"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/virtual_time.golden from the engine")

// fbits prints a float so that the text round-trips to the same bits.
func fbits(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// TestVirtualTimeGolden pins the virtual clock bit for bit: the makespan,
// busy core time, the struct/trigger/push clock split, the memory
// hierarchy's counters, every job's counters and every progress event's
// virtual stamp, in order, for the dense and the traversal mix at Workers
// {1, 2, 8} × Balance {1/Workers, 4} on a small-cache hierarchy. How the
// round is executed on the wall clock may change; what the virtual clock
// charges for it may not, short of a stated recalibration that regenerates
// testdata/virtual_time.golden (-update-golden).
func TestVirtualTimeGolden(t *testing.T) {
	edges := gen.RMAT(77, 1024, 32768, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 1024, 4, false)
	mixes := []struct {
		name string
		mk   func() []model.Program
	}{
		{"dense", func() []model.Program {
			return []model.Program{algo.NewPageRank(), algo.NewPPR(0), &algo.PageRank{Damping: 0.7, Epsilon: 1e-3}, algo.NewHITS()}
		}},
		{"traversal", func() []model.Program {
			return []model.Program{algo.NewBFS(0), algo.NewSSSP(0), algo.NewSSWP(0), algo.NewSCC()}
		}},
	}
	var b strings.Builder
	for _, mix := range mixes {
		for _, workers := range []int{1, 2, 8} {
			for _, balance := range []float64{1 / float64(workers), 4} {
				progress := fnv.New64a()
				var events int
				e := NewSingle(Config{
					Workers: workers,
					Balance: balance,
					Hier:    smallHier(),
					OnJobProgress: func(p JobProgress) {
						events++
						fmt.Fprintf(progress, "%d %d %d %x;", p.JobID, p.Iteration, p.EdgesProcessed, math.Float64bits(p.VirtualTimeUS))
					},
				}, pg)
				for _, p := range mix.mk() {
					e.Submit(p, 0)
				}
				rep, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s workers=%d balance=%s rounds=%d makespan=%s busy=%s struct=%s trigger=%s push=%s\n",
					mix.name, workers, fbits(balance), e.rounds.Load(), fbits(rep.Makespan), fbits(rep.BusyCoreTime),
					fbits(e.ClockStruct), fbits(e.ClockTrigger), fbits(e.ClockPush))
				fmt.Fprintf(&b, "  counters %+v\n", rep.Counters)
				fmt.Fprintf(&b, "  progress events=%d fnv=%016x\n", events, progress.Sum64())
				for _, jm := range rep.Jobs {
					fmt.Fprintf(&b, "  job %d %s it=%d edges=%d vertices=%d sync=%d access=%s compute=%s synct=%s submit=%s finish=%s\n",
						jm.JobID, jm.Name, jm.Iterations, jm.Edges, jm.Vertices, jm.SyncEntries,
						fbits(jm.AccessTime), fbits(jm.ComputeTime), fbits(jm.SyncTime), fbits(jm.SubmitAt), fbits(jm.FinishAt))
				}
			}
		}
	}
	path := filepath.Join("testdata", "virtual_time.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
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
