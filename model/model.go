// Package model defines the vertex-centric programming model shared by the
// CGraph engine, the baseline engines and the bundled algorithms.
//
// It is the Go rendering of the paper's three-function interface (§3.4):
// IsNotConvergent() becomes IsActive, Acc() keeps its name, and Compute() is
// split into Apply (merge the accumulated delta into the vertex value and
// produce a scatter seed) plus Contribution (the delta sent along one edge).
// Splitting Compute lets the engine iterate a partition's edges itself, which
// is what makes the shared, load-once-trigger-many execution of the LTP model
// possible: the engine owns the traversal, the program owns the arithmetic.
package model

import "math"

// VertexID identifies a vertex in the global graph.
type VertexID uint32

// NoVertex is the sentinel for "no vertex".
const NoVertex = VertexID(math.MaxUint32)

// Edge is one directed, weighted edge of the input graph.
type Edge struct {
	Src, Dst VertexID
	Weight   float32
}

// HoleEdge returns the tombstone written into an edge slot freed by a
// removal. Holes keep later slots' chunk assignment stable (so a remove
// does not recut every chunk after it) and are skipped when the graph is
// built; a later add refills the slot in place.
func HoleEdge() Edge {
	return Edge{Src: NoVertex, Dst: NoVertex, Weight: float32(math.NaN())}
}

// IsHole reports whether the edge is a freed-slot tombstone.
func (e Edge) IsHole() bool {
	return e.Src == NoVertex && e.Dst == NoVertex
}

// Direction selects which incident edges a program traverses when scattering.
type Direction uint8

const (
	// Out scatters along out-edges (PageRank, SSSP, BFS).
	Out Direction = iota
	// In scatters along in-edges (backward phases, e.g. SCC confirmation).
	In
	// Both scatters along all incident edges (WCC, k-core).
	Both
)

func (d Direction) String() string {
	switch d {
	case Out:
		return "out"
	case In:
		return "in"
	default:
		return "both"
	}
}

// State is the per-vertex, per-job state held in a job's private table: the
// converged value so far plus the delta accumulated from neighbours since the
// vertex was last applied (the paper's vh.value and vh.Δvalue).
type State struct {
	Value float64
	Delta float64
}

// GraphInfo exposes the global graph facts a program may consult at
// initialization time.
type GraphInfo interface {
	NumVertices() int
	OutDegree(v VertexID) int
	InDegree(v VertexID) int
}

// Program is one iterative graph algorithm. A program must be stateless with
// respect to vertices except through State and its own job-private
// bookkeeping (e.g. SCC's assignment table); engines may invoke Apply and
// Contribution from multiple goroutines concurrently, for different vertices
// and for different replicas of one vertex (a vertex cut across partitions
// has one replica in each, and one job's partitions are swept side by side),
// so Apply writes nothing shared but the State it is handed.
type Program interface {
	// Name identifies the algorithm in reports.
	Name() string

	// Direction reports which incident edges Scatter uses. Engines re-read
	// it at every phase boundary, so phased programs may change it.
	Direction() Direction

	// Identity is the neutral element of Acc (0 for sum, +Inf for min,
	// -Inf for max). A vertex whose Delta equals Identity has received
	// nothing.
	Identity() float64

	// Acc folds a new contribution into an accumulated delta. It must be
	// commutative and associative.
	Acc(acc, contribution float64) float64

	// IsActive is the paper's IsNotConvergent: given a state that has just
	// accumulated deltas, does the vertex need processing next iteration?
	IsActive(s State) bool

	// Init returns the initial state of v and whether it starts active.
	Init(v VertexID, g GraphInfo) (s State, active bool)

	// Apply consumes s.Delta into s.Value and returns the scatter seed for
	// Contribution. Apply must always reset s.Delta to Identity, even when
	// it returns scatter=false. deg is v's degree in Direction().
	Apply(v VertexID, s *State, deg int) (seed float64, scatter bool)

	// Contribution returns the delta for a neighbour reached over an edge
	// of weight w, given the seed from Apply.
	Contribution(seed float64, w float32) float64
}

// AccOp names an accumulator in closed form.
type AccOp uint8

const (
	// Sum is Acc(a, c) = a + c.
	Sum AccOp = iota + 1
	// Min is Acc(a, c) = min(a, c), the builtin.
	Min
	// Max is Acc(a, c) = max(a, c), the builtin.
	Max
)

// EdgeOp names a per-edge contribution in closed form.
type EdgeOp uint8

const (
	// Copy is Contribution(seed, w) = seed.
	Copy EdgeOp = iota + 1
	// AddWeight is Contribution(seed, w) = seed + float64(w).
	AddWeight
	// AddOne is Contribution(seed, w) = seed + 1.
	AddOne
	// MinWeight is Contribution(seed, w) = min(seed, float64(w)).
	MinWeight
)

// Algebra is a program's per-edge arithmetic in closed form. The zero value
// declares nothing.
type Algebra struct {
	Acc  AccOp
	Edge EdgeOp
}

// Declared reports whether a names one of the closed forms above on both
// sides; anything else sends the program down the interface path.
func (a Algebra) Declared() bool {
	return a.Acc >= Sum && a.Acc <= Max && a.Edge >= Copy && a.Edge <= MinWeight
}

// Fold is the accumulator a declares: what the program's Acc must return on
// every pair of inputs. Fold and Along are the only place the closed forms
// are written out: the engines' edge loops call them, and both are small
// enough to be inlined there. That is why Min and Max are the builtins and
// not math.Min and math.Max, which are calls; the two agree except that the
// builtins return NaN whenever an operand is NaN, math.Min(NaN, −Inf) is
// −Inf and math.Max(NaN, +Inf) is +Inf.
func (a Algebra) Fold(acc, contribution float64) float64 {
	switch a.Acc {
	case Min:
		return min(acc, contribution)
	case Max:
		return max(acc, contribution)
	default:
		return acc + contribution
	}
}

// Along is the contribution a declares: what the program's Contribution must
// return on every pair of inputs.
func (a Algebra) Along(seed float64, w float32) float64 {
	switch a.Edge {
	case AddWeight:
		return seed + float64(w)
	case AddOne:
		return seed + 1
	case MinWeight:
		return min(seed, float64(w))
	default:
		return seed
	}
}

// Algebraic is an optional Program extension declaring that the program's
// Acc and Contribution are exactly Algebra().Fold and Algebra().Along.
// The engines then run edge loops with those two inlined instead of calling
// Acc and Contribution through the interface once per edge; Apply,
// IsActive and Init are still the program's own. A program that is also a
// Filterer, or that declares nothing, keeps the interface path.
//
// The declaration is a promise the engines do not check at run time. A wrong
// one does not crash: the job converges to whatever the declared arithmetic
// computes — SSSP declared AddOne silently returns hop counts. Two tests
// catch it for the bundled programs: algo's TestAlgebraMatchesMethods holds
// every declaration against the program's own methods on ordinary and
// special values (NaN, ±0, ±Inf), and internal/exec's
// TestSweepMatchesApplyMerge runs each program with its declaration visible
// and hidden and requires bit-identical state after every iteration. Add a
// new program to both lists.
type Algebraic interface {
	Algebra() Algebra
}

// StateView gives phased programs whole-graph access to their private state
// between phases. Set writes the state to every replica of v and marks the
// vertex active or inactive for the next phase.
type StateView interface {
	NumVertices() int
	Get(v VertexID) State
	Set(v VertexID, s State, active bool)
}

// Phased is implemented by programs with multiple propagation phases (e.g.
// SCC's alternating forward/backward sweeps). When a job has no active
// vertices left, the engine calls NextPhase; returning true restarts
// iteration with the (possibly rewritten) states, returning false completes
// the job. Engines re-read Direction() after NextPhase.
type Phased interface {
	Program
	NextPhase(view StateView) bool
}

// Inf is a convenience alias used by min/max-propagation programs.
var Inf = math.Inf(1)

// Resulter is an optional Program extension overriding per-vertex result
// extraction: programs whose answer lives in job-private bookkeeping rather
// than the propagation state (e.g. SCC's assignment table) implement it.
type Resulter interface {
	Result(v VertexID, s State) float64
}

// Filterer is an optional Program extension that rejects a contribution
// based on the receiver's current state before Acc folds it. Colour-
// respecting flood phases need it: SCC's backward sweep must not let a
// larger colour's flag mask the matching one inside a single Acc fold,
// which would split true components.
type Filterer interface {
	Accept(s State, contribution float64) bool
}
