package algo

import (
	"math"
	"testing"
	"testing/quick"

	"cgraph/internal/testutil"
	"cgraph/model"
)

// allPrograms lists one instance of every bundled program.
func allPrograms() []model.Program {
	return []model.Program{
		NewPageRank(), NewPPR(0), NewSSSP(0), NewBFS(0), NewWCC(),
		NewSSWP(0), NewKCore(3), NewDegree(), NewSCC(), NewHITS(), NewKatz(),
	}
}

// graphInfoStub satisfies model.GraphInfo for contract tests.
type graphInfoStub struct{ n int }

func (g graphInfoStub) NumVertices() int             { return g.n }
func (g graphInfoStub) OutDegree(model.VertexID) int { return 3 }
func (g graphInfoStub) InDegree(model.VertexID) int  { return 2 }

// TestAccIdentityContract: folding the identity into any value is a no-op,
// for every program — the property the engine's "skip identity deltas"
// optimization in Push depends on.
func TestAccIdentityContract(t *testing.T) {
	for _, p := range allPrograms() {
		ident := p.Identity()
		for _, v := range []float64{-3, 0, 0.5, 7, 1e9} {
			if got := p.Acc(ident, v); got != v {
				t.Fatalf("%s: Acc(identity, %v) = %v", p.Name(), v, got)
			}
			if got := p.Acc(v, ident); got != v {
				t.Fatalf("%s: Acc(%v, identity) = %v", p.Name(), v, got)
			}
		}
	}
}

// TestAccCommutativeAssociative property-tests the Acc algebra the paper
// requires ("Acc() is utilized for a vertex to accumulate contributions").
func TestAccCommutativeAssociative(t *testing.T) {
	for _, p := range allPrograms() {
		p := p
		f := func(a, b, c float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
				return true
			}
			if p.Acc(a, b) != p.Acc(b, a) {
				return false
			}
			l := p.Acc(p.Acc(a, b), c)
			r := p.Acc(a, p.Acc(b, c))
			if l == r {
				return true
			}
			// Float addition is only approximately associative.
			return math.Abs(l-r) <= 1e-9*math.Max(math.Abs(l), math.Abs(r))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

// TestApplyResetsDelta: the Apply contract requires the delta to be reset
// to the identity even when scatter is false.
func TestApplyResetsDelta(t *testing.T) {
	g := graphInfoStub{n: 10}
	for _, p := range allPrograms() {
		for v := model.VertexID(0); v < 10; v++ {
			s, _ := p.Init(v, g)
			p.Apply(v, &s, 3)
			if s.Delta != p.Identity() && !(math.IsNaN(s.Delta) && math.IsNaN(p.Identity())) {
				t.Fatalf("%s: Apply left delta %v (identity %v)", p.Name(), s.Delta, p.Identity())
			}
		}
	}
}

// TestIdentityIsInactiveAfterApply: right after applying, a vertex that
// received nothing must not report active (no busy-looping).
func TestIdentityIsInactiveAfterApply(t *testing.T) {
	g := graphInfoStub{n: 10}
	for _, p := range allPrograms() {
		s, _ := p.Init(5, g)
		p.Apply(5, &s, 3)
		if p.IsActive(s) {
			t.Fatalf("%s: vertex active with identity delta", p.Name())
		}
	}
}

// TestDirectionStability: non-phased programs must report a constant
// direction (engines cache it per phase).
func TestDirectionStability(t *testing.T) {
	for _, p := range allPrograms() {
		if _, phased := p.(model.Phased); phased {
			continue
		}
		d := p.Direction()
		for i := 0; i < 3; i++ {
			if p.Direction() != d {
				t.Fatalf("%s: direction changed without a phase boundary", p.Name())
			}
		}
	}
}

func TestPageRankApplySemantics(t *testing.T) {
	p := NewPageRank()
	s := model.State{Value: 1, Delta: 0.4}
	seed, scatter := p.Apply(0, &s, 4)
	if !scatter || s.Value != 1.4 || s.Delta != 0 {
		t.Fatalf("apply wrong: %+v scatter=%v", s, scatter)
	}
	want := 0.85 * 0.4 / 4
	if math.Abs(seed-want) > 1e-15 {
		t.Fatalf("seed = %v, want %v", seed, want)
	}
	// Dangling vertex: absorbs but never scatters.
	s = model.State{Value: 0, Delta: 0.3}
	if _, scatter := p.Apply(0, &s, 0); scatter {
		t.Fatal("dangling vertex must not scatter")
	}
}

func TestSSSPApplySemantics(t *testing.T) {
	p := NewSSSP(0)
	s := model.State{Value: 10, Delta: 7}
	seed, scatter := p.Apply(1, &s, 2)
	if !scatter || seed != 7 || s.Value != 7 {
		t.Fatalf("improvement not applied: %+v", s)
	}
	if got := p.Contribution(7, 2.5); got != 9.5 {
		t.Fatalf("Contribution = %v, want 9.5", got)
	}
	// Worse candidate: no scatter, value unchanged.
	s = model.State{Value: 5, Delta: 9}
	if _, scatter := p.Apply(1, &s, 2); scatter || s.Value != 5 {
		t.Fatalf("non-improvement handled wrong: %+v", s)
	}
}

func TestKCoreSemantics(t *testing.T) {
	p := NewKCore(3)
	g := graphInfoStub{n: 4} // degree 3+2 = 5
	s, active := p.Init(0, g)
	if !active || s.Value != 5 {
		t.Fatalf("init wrong: %+v", s)
	}
	// Loses three neighbours: 5-3 = 2 < 3 → leaves the core, fires once.
	s.Delta = -3
	seed, scatter := p.Apply(0, &s, 5)
	if !scatter || seed != -1 || s.Value != -1 {
		t.Fatalf("removal wrong: %+v seed=%v", s, seed)
	}
	// Already removed: further decrements never re-fire.
	s.Delta = -2
	if _, scatter := p.Apply(0, &s, 5); scatter {
		t.Fatal("removed vertex fired twice")
	}
	if p.Result(0, model.State{Value: 4}) != 4 || p.Result(0, model.State{Value: 2}) != -1 {
		t.Fatal("Result normalization wrong")
	}
}

func TestSCCFilterSemantics(t *testing.T) {
	p := NewSCC()
	// Forward phase accepts everything.
	if !p.Accept(model.State{Value: 5}, 9) {
		t.Fatal("forward phase must accept all contributions")
	}
	p.phase = 1
	// Backward phase: only the matching colour folds.
	if p.Accept(model.State{Value: 5}, 9) {
		t.Fatal("mismatched flag accepted")
	}
	if !p.Accept(model.State{Value: 9}, 9) {
		t.Fatal("matching flag rejected")
	}
}

func TestHITSPhaseMachine(t *testing.T) {
	p := NewHITS()
	g := graphInfoStub{n: 3}
	s, active := p.Init(0, g)
	if !active || s.Value != 1.0/3 {
		t.Fatalf("init wrong: %+v", s)
	}
	if p.Direction() != model.Out {
		t.Fatal("must start scattering hubs along out-edges")
	}
	if p.IsActive(model.State{Delta: 5}) {
		t.Fatal("HITS must not re-activate within a sweep")
	}
	seed, scatter := p.Apply(0, &s, 2)
	if !scatter || seed != 1.0/3 {
		t.Fatalf("hub scatter wrong: seed=%v", seed)
	}
	// Zero-score or dangling vertices stay quiet.
	z := model.State{Value: 0}
	if _, scatter := p.Apply(1, &z, 2); scatter {
		t.Fatal("zero-score vertex scattered")
	}
}

func TestKatzApplySemantics(t *testing.T) {
	p := &Katz{Alpha: 0.1, Beta: 1, Epsilon: 1e-9}
	s, active := p.Init(0, graphInfoStub{n: 2})
	if !active || s.Delta != 1 {
		t.Fatalf("init wrong: %+v", s)
	}
	seed, scatter := p.Apply(0, &s, 4)
	if !scatter || s.Value != 1 || math.Abs(seed-0.1) > 1e-15 {
		t.Fatalf("apply wrong: %+v seed=%v", s, seed)
	}
}

func TestSourcedProgramsActivateOnlySource(t *testing.T) {
	g := graphInfoStub{n: 8}
	for _, tc := range []struct {
		prog model.Program
		src  model.VertexID
	}{
		{NewSSSP(3), 3}, {NewBFS(3), 3}, {NewSSWP(3), 3}, {NewPPR(3), 3},
	} {
		for v := model.VertexID(0); v < 8; v++ {
			_, active := tc.prog.Init(v, g)
			if active != (v == tc.src) {
				t.Fatalf("%s: vertex %d activation = %v", tc.prog.Name(), v, active)
			}
		}
	}
}

func TestNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range allPrograms() {
		if seen[p.Name()] {
			t.Fatalf("duplicate program name %q", p.Name())
		}
		seen[p.Name()] = true
	}
}

// TestAlgebraMatchesMethods: every bundled program the engines could run on
// declared arithmetic declares it (model.Algebraic), and the declaration is
// the program's own Acc and Contribution bit for bit — on signed zeros,
// infinities and NaN too (NaN for NaN, testutil.SameFloat), where the min and
// max builtins the declaration means differ from math.Min / math.Max or from
// a hand-written comparison. The engines run
// the declared arithmetic without checking it. A Filterer (SCC) always runs
// through its methods, so it has nothing to declare.
func TestAlgebraMatchesMethods(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, -1, 0.3, 2.5e9, math.Inf(1), math.Inf(-1), math.NaN()}
	weights := []float32{0, float32(math.Copysign(0, -1)), 1, 0.25, 7, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	same := testutil.SameFloat
	for _, p := range allPrograms() {
		if _, filtered := p.(model.Filterer); filtered {
			continue
		}
		al, ok := p.(model.Algebraic)
		if !ok || !al.Algebra().Declared() {
			t.Errorf("%s declares no algebra", p.Name())
			continue
		}
		alg := al.Algebra()
		for _, a := range values {
			for _, c := range values {
				if got, want := alg.Fold(a, c), p.Acc(a, c); !same(got, want) {
					t.Errorf("%s: declared Fold(%v, %v) = %v, Acc = %v", p.Name(), a, c, got, want)
				}
			}
			for _, w := range weights {
				if got, want := alg.Along(a, w), p.Contribution(a, w); !same(got, want) {
					t.Errorf("%s: declared Along(%v, %v) = %v, Contribution = %v", p.Name(), a, w, got, want)
				}
			}
		}
	}
}
