// Package pool is the engine's work-stealing task executor: a bounded set
// of workers, one mutex-guarded deque per worker, owner pops from the tail,
// idle workers steal half a victim's deque from the head (CGgraph-style
// steal-half). Tasks carry an integer weight (edge counts, in the engine's
// use) so seeding can place heavy tasks first (LPT greedy) and callers can
// read post-run imbalance. The pool runs both task sets of a round — its
// sweeps, then its pushes — which bounds total goroutines at Workers
// however many jobs and partitions are in flight.
//
// Tasks must not submit further tasks: a run terminates when every deque
// has been observed empty by an idle worker, which is only sound because
// the task set is fixed up front.
package pool

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Task is one unit of work. Weight is the caller's cost estimate (e.g. an
// edge count) used for initial placement and imbalance accounting; zero
// weights are placed round-robin-ish with an assumed cost of 1.
type Task struct {
	Run    func(worker int)
	Weight int64
	// Trace, when non-nil, brackets the task's execution: it is invoked
	// just before Run with the executing worker and whether the task ran
	// on a worker other than the one it was seeded on (i.e. it was moved
	// by a steal), and the returned func — if non-nil — runs right after
	// Run returns. The engine uses this seam for per-task tracing and
	// stolen-task attribution without the pool depending on the tracer.
	Trace func(worker int, stolen bool) func()
	// seed is the worker the task was initially placed on.
	seed int
}

// exec runs the task on worker w, bracketing it with Trace when set.
func (t *Task) exec(w int) {
	if t.Trace != nil {
		if done := t.Trace(w, w != t.seed); done != nil {
			defer done()
		}
	}
	t.Run(w)
}

// Stats is the account of one Run call.
type Stats struct {
	// Tasks is the number of tasks executed.
	Tasks int64
	// Steals counts successful steal operations; Stolen counts the tasks
	// they moved. Stolen/Steals ≈ batch size; both 0 means the initial
	// placement was balanced enough that nobody went idle early.
	Steals int64
	Stolen int64
	// MaxWorkerWeight / TotalWeight describe the realized per-worker load
	// split: MaxWorkerWeight·Workers / TotalWeight is the imbalance factor
	// (1.0 = perfectly even).
	MaxWorkerWeight int64
	TotalWeight     int64
	// Workers is the number of workers the run was dispatched to: 1 when it
	// ran inline on the caller, where MaxWorkerWeight = TotalWeight says
	// nothing about balance.
	Workers int
}

// Imbalance returns MaxWorkerWeight·workers/TotalWeight, or 1 when no
// weight was recorded.
func (s Stats) Imbalance(workers int) float64 {
	if s.TotalWeight <= 0 || workers <= 0 {
		return 1
	}
	return float64(s.MaxWorkerWeight) * float64(workers) / float64(s.TotalWeight)
}

// deque is one worker's task queue. The owner pops from the tail; thieves
// lock it and take half from the head.
type deque struct {
	mu    sync.Mutex
	tasks []Task
	// loot stages a steal between the victim's lock and the owner's; only
	// the owning worker touches it.
	loot []Task
}

func (d *deque) popTail() (Task, bool) {
	d.mu.Lock()
	n := len(d.tasks)
	if n == 0 {
		d.mu.Unlock()
		return Task{}, false
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = Task{}
	d.tasks = d.tasks[:n-1]
	d.mu.Unlock()
	return t, true
}

// stealHalf moves ceil(len/2) tasks from the victim's head into dst, the
// calling worker's own deque. The two locks are never held together.
func (d *deque) stealHalf(dst *deque) int {
	d.mu.Lock()
	n := len(d.tasks)
	if n == 0 {
		d.mu.Unlock()
		return 0
	}
	take := (n + 1) / 2
	dst.loot = append(dst.loot[:0], d.tasks[:take]...)
	rest := copy(d.tasks, d.tasks[take:])
	clear(d.tasks[rest:]) // the deques outlive the run: keep no stale task
	d.tasks = d.tasks[:rest]
	d.mu.Unlock()

	dst.mu.Lock()
	dst.tasks = append(dst.tasks, dst.loot...)
	dst.mu.Unlock()
	clear(dst.loot)
	return take
}

// Pool executes task sets on a fixed number of workers. Goroutines are
// spawned per Run (none are resident between rounds); everything else a run
// needs — the deques and the seeding and accounting buffers below — is kept
// on the pool and reused, so a warmed pool allocates only those spawns. The
// zero-value Pool is not usable — construct with New.
type Pool struct {
	workers int
	runMu   sync.Mutex // one task set at a time; guards every field below

	deques   []*deque
	order    []int   // seed: task indices, heaviest first
	load     []int64 // seed: weight placed per worker
	executed []int64 // per-worker executed weight, owner-written
	steals   atomic.Int64
	stolen   atomic.Int64
	wg       sync.WaitGroup
}

// New returns a pool with the given worker bound (minimum 1).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers:  workers,
		deques:   make([]*deque, workers),
		load:     make([]int64, workers),
		executed: make([]int64, workers),
	}
	for i := range p.deques {
		p.deques[i] = &deque{}
	}
	return p
}

// Workers returns the worker bound.
func (p *Pool) Workers() int { return p.workers }

// Inline executes every task on the calling goroutine, in order, as worker 0
// — what Run does with one worker or a single task, for callers that know a
// task set is too light to be worth waking workers for.
func Inline(tasks []Task) Stats {
	st := Stats{Tasks: int64(len(tasks)), Workers: 1}
	for i := range tasks {
		st.TotalWeight += taskWeight(tasks[i])
		tasks[i].exec(0)
	}
	st.MaxWorkerWeight = st.TotalWeight
	return st
}

// Run executes every task and returns the run's stats. Tasks are seeded
// LPT (heaviest first onto the currently lightest worker) and rebalanced
// by stealing as workers drain. With one worker, or a single task, the
// pool runs inline on the calling goroutine with zero scheduling overhead.
func (p *Pool) Run(tasks []Task) Stats {
	if p.workers == 1 || len(tasks) <= 1 {
		return Inline(tasks)
	}
	st := Stats{Tasks: int64(len(tasks))}
	for _, t := range tasks {
		st.TotalWeight += taskWeight(t)
	}

	p.runMu.Lock()
	defer p.runMu.Unlock()

	n := min(p.workers, len(tasks))
	st.Workers = n
	p.seed(n, tasks)
	p.steals.Store(0)
	p.stolen.Store(0)
	clear(p.executed)
	p.wg.Add(n)
	for w := 0; w < n; w++ {
		go p.work(w, p.deques[:n])
	}
	p.wg.Wait()

	st.Steals = p.steals.Load()
	st.Stolen = p.stolen.Load()
	st.MaxWorkerWeight = slices.Max(p.executed)
	return st
}

// work is one worker's loop: drain the own deque from the tail, steal when
// it runs dry, exit after a full idle sweep.
func (p *Pool) work(id int, deques []*deque) {
	defer p.wg.Done()
	self := deques[id]
	for {
		t, ok := self.popTail()
		if !ok {
			if !p.stealSweep(id, deques) {
				return
			}
			continue
		}
		t.exec(id)
		p.executed[id] += taskWeight(t)
	}
}

func taskWeight(t Task) int64 {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// seed distributes tasks LPT-greedy over the first n deques: heaviest task
// onto the worker with the least seeded weight. Equal-weight (or
// unweighted) tasks degrade to a round-robin spread.
func (p *Pool) seed(n int, tasks []Task) {
	p.order = p.order[:0]
	for i := range tasks {
		p.order = append(p.order, i)
	}
	slices.SortStableFunc(p.order, func(a, b int) int {
		return cmp.Compare(taskWeight(tasks[b]), taskWeight(tasks[a]))
	})
	deques, load := p.deques[:n], p.load[:n]
	clear(load)
	for _, ti := range p.order {
		light := 0
		for w := 1; w < n; w++ {
			if load[w] < load[light] {
				light = w
			}
		}
		t := tasks[ti]
		t.seed = light
		load[light] += taskWeight(t)
		deques[light].tasks = append(deques[light].tasks, t)
	}
	// Owners pop from the tail; reverse so the heaviest seeded task runs
	// first and the small tail tasks remain stealable at the head.
	for _, d := range deques {
		slices.Reverse(d.tasks)
	}
}

// stealSweep tries every other deque once, starting after the thief.
// Returns false only after a full idle sweep, which (with a fixed task
// set) means no queued work remains anywhere.
func (p *Pool) stealSweep(id int, deques []*deque) bool {
	for off := 1; off < len(deques); off++ {
		victim := deques[(id+off)%len(deques)]
		if got := victim.stealHalf(deques[id]); got > 0 {
			p.steals.Add(1)
			p.stolen.Add(int64(got))
			return true
		}
	}
	return false
}
