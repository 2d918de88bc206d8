package pool

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cgraph/internal/testutil"
)

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		const n = 500
		counts := make([]atomic.Int64, n)
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = Task{Run: func(int) { counts[i].Add(1) }, Weight: int64(i % 7)}
		}
		st := p.Run(tasks)
		if st.Tasks != n {
			t.Fatalf("workers=%d: Tasks = %d, want %d", workers, st.Tasks, n)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	p := New(4)
	if st := p.Run(nil); st.Tasks != 0 {
		t.Fatalf("empty run: Tasks = %d", st.Tasks)
	}
	ran := 0
	st := p.Run([]Task{{Run: func(w int) { ran++ }, Weight: 9}})
	if ran != 1 || st.Tasks != 1 {
		t.Fatalf("single task: ran=%d stats=%+v", ran, st)
	}
	if st.MaxWorkerWeight != 9 || st.TotalWeight != 9 {
		t.Fatalf("single task weights: %+v", st)
	}
}

func TestWorkerIDsWithinBound(t *testing.T) {
	p := New(3)
	var bad atomic.Int64
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = Task{Run: func(w int) {
			if w < 0 || w >= 3 {
				bad.Add(1)
			}
		}}
	}
	p.Run(tasks)
	if bad.Load() != 0 {
		t.Fatalf("%d tasks saw an out-of-range worker id", bad.Load())
	}
}

// TestHeavyTaskDoesNotBlockSmall blocks one worker on a giant task and
// checks every small task still completes while it is held — the hub-stall
// scenario static chunking cannot escape.
func TestHeavyTaskDoesNotBlockSmall(t *testing.T) {
	p := New(4)
	release := make(chan struct{})
	var reached sync.WaitGroup
	reached.Add(1)
	var small atomic.Int64
	tasks := []Task{
		// One task heavy enough that LPT seeds everything else elsewhere,
		// then blocks its worker until the small tasks have all run —
		// forcing any tasks co-seeded behind it to be stolen.
		{Weight: 1 << 40, Run: func(int) { reached.Done(); <-release }},
	}
	const nSmall = 200
	for i := 0; i < nSmall; i++ {
		tasks = append(tasks, Task{Weight: 1, Run: func(int) { small.Add(1) }})
	}
	done := make(chan Stats, 1)
	go func() { done <- p.Run(tasks) }()
	reached.Wait()
	// All small tasks can finish while the heavy one is still blocked:
	// they are spread over the other three workers and stealable.
	for small.Load() != nSmall {
		runtime.Gosched()
	}
	close(release)
	st := <-done
	if st.Tasks != nSmall+1 {
		t.Fatalf("Tasks = %d, want %d", st.Tasks, nSmall+1)
	}
	if st.MaxWorkerWeight < 1<<40 {
		t.Fatalf("MaxWorkerWeight = %d, want >= heavy task", st.MaxWorkerWeight)
	}
}

func TestImbalance(t *testing.T) {
	st := Stats{MaxWorkerWeight: 50, TotalWeight: 100}
	if got := st.Imbalance(2); got != 1.0 {
		t.Fatalf("even split imbalance = %v", got)
	}
	st = Stats{MaxWorkerWeight: 100, TotalWeight: 100}
	if got := st.Imbalance(4); got != 4.0 {
		t.Fatalf("all-on-one imbalance = %v", got)
	}
	if got := (Stats{}).Imbalance(4); got != 1.0 {
		t.Fatalf("zero stats imbalance = %v", got)
	}
}

// TestConcurrentRunsSerialize checks Run is safe to call from multiple
// goroutines (rounds never overlap in the engine, but the pool should not
// corrupt state if they do).
func TestConcurrentRunsSerialize(t *testing.T) {
	p := New(4)
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tasks := make([]Task, 100)
			for i := range tasks {
				tasks[i] = Task{Run: func(int) { total.Add(1) }}
			}
			p.Run(tasks)
		}()
	}
	wg.Wait()
	if total.Load() != 400 {
		t.Fatalf("total = %d, want 400", total.Load())
	}
}

func BenchmarkRunUniform(b *testing.B) {
	p := New(8)
	tasks := make([]Task, 256)
	var sink atomic.Int64
	for i := range tasks {
		tasks[i] = Task{Weight: 100, Run: func(int) { sink.Add(1) }}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(tasks)
	}
}

// TestTraceBracket verifies the Trace seam: the pre-hook fires once per
// task with the executing worker, the returned post-hook fires after Run,
// and stolen reporting is consistent (a task that never moved reports
// stolen=false; the stolen count matches the pool's own Stolen stat at
// least in the single-worker case where nothing can move).
func TestTraceBracket(t *testing.T) {
	var pre, post, stolen atomic.Int64
	mk := func(n int) []Task {
		tasks := make([]Task, n)
		for i := range tasks {
			ran := false
			tasks[i] = Task{
				Weight: int64(i + 1),
				Run:    func(int) { ran = true },
				Trace: func(worker int, st bool) func() {
					if ran {
						t.Error("Trace fired after Run")
					}
					pre.Add(1)
					if st {
						stolen.Add(1)
					}
					return func() {
						if !ran {
							t.Error("post-hook fired before Run completed")
						}
						post.Add(1)
					}
				},
			}
		}
		return tasks
	}

	// Inline path: one worker, nothing can be stolen.
	New(1).Run(mk(16))
	if pre.Load() != 16 || post.Load() != 16 {
		t.Fatalf("inline: pre/post = %d/%d, want 16/16", pre.Load(), post.Load())
	}
	if stolen.Load() != 0 {
		t.Fatalf("inline: stolen = %d, want 0", stolen.Load())
	}

	// Parallel path: every task still brackets exactly once.
	pre.Store(0)
	post.Store(0)
	stolen.Store(0)
	st := New(4).Run(mk(64))
	if pre.Load() != 64 || post.Load() != 64 {
		t.Fatalf("parallel: pre/post = %d/%d, want 64/64", pre.Load(), post.Load())
	}
	if stolen.Load() > st.Stolen {
		t.Fatalf("trace reported %d stolen tasks, pool moved only %d", stolen.Load(), st.Stolen)
	}
}

// TestRunAllocatesOnlySpawns: on a warmed pool a run allocates nothing but
// its worker goroutines' start-up (at most a closure each) — deques, seeding
// order and steal staging are all reused.
func TestRunAllocatesOnlySpawns(t *testing.T) {
	testutil.SkipUnderRace(t)
	const workers = 4
	p := New(workers)
	tasks := make([]Task, 256)
	for i := range tasks {
		// Skewed weights seed unevenly, so the run steals.
		tasks[i] = Task{Run: func(int) {}, Weight: int64(1 + i%3*i)}
	}
	for i := 0; i < 20; i++ {
		p.Run(tasks)
	}
	if got := testing.AllocsPerRun(50, func() { p.Run(tasks) }); got > workers {
		t.Fatalf("warmed Run allocates %v times, want <= %d (one spawn per worker)", got, workers)
	}
}

// TestSeedMatchesLPT pins the seeding the engine's virtual-time accounting
// and Stats rest on: heaviest first (ties in input order) onto the lightest
// worker (ties to the lowest), each deque reversed so its heaviest task pops
// first.
func TestSeedMatchesLPT(t *testing.T) {
	p := New(3)
	weights := []int64{5, 9, 0, 9, 2, 7, 5}
	tasks := make([]Task, len(weights))
	for i, w := range weights {
		tasks[i] = Task{Weight: w}
	}
	p.seed(3, tasks)
	// Order 1 3 5 0 6 4 2 (weights 9 9 7 5 5 2 1): 1→w0, 3→w1, 5→w2, 0→w2
	// (7 is lightest), 6→w0, 4→w1, 2→w1 (11 < 12, 14).
	want := [][]int64{{5, 9}, {0, 2, 9}, {5, 7}}
	for w, d := range p.deques {
		var got []int64
		for _, tk := range d.tasks {
			got = append(got, tk.Weight)
			if tk.seed != w {
				t.Fatalf("deque %d holds a task seeded for %d", w, tk.seed)
			}
		}
		if !slices.Equal(got, want[w]) {
			t.Fatalf("deque %d = %v, want %v", w, got, want[w])
		}
		d.tasks = d.tasks[:0]
	}
}
