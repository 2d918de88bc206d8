// Package algo bundles the iterative graph algorithms evaluated in the paper
// (PageRank, SSSP, SCC, BFS — §4) plus the common companions a concurrent
// analytics platform runs alongside them (personalized PageRank, weakly
// connected components, k-core, widest path, degree), each expressed as a
// model.Program exactly as Fig. 7 instantiates PageRank and SSSP.
//
// Programs with job-private bookkeeping (SCC) must not be shared between
// jobs: construct one instance per job.
package algo

import (
	"math"

	"cgraph/model"
)

// The closed-form arithmetic the bundled programs declare (model.Algebraic):
// each pair is exactly the program's Acc and Contribution, which
// TestAlgebraMatchesMethods holds it to.
var (
	sumCopy      = model.Algebra{Acc: model.Sum, Edge: model.Copy}
	minCopy      = model.Algebra{Acc: model.Min, Edge: model.Copy}
	minAddOne    = model.Algebra{Acc: model.Min, Edge: model.AddOne}
	minAddWeight = model.Algebra{Acc: model.Min, Edge: model.AddWeight}
	maxMinWeight = model.Algebra{Acc: model.Max, Edge: model.MinWeight}
)

// PageRank is the delta-accumulative PageRank of Fig. 7(a): each vertex
// absorbs the accumulated Δ into its rank and forwards d·Δ/outdeg to its
// out-neighbours until every pending Δ falls below Epsilon. The fixed point
// satisfies rank = (1-d) + d·Σ_in rank(u)/outdeg(u).
type PageRank struct {
	Damping float64
	Epsilon float64
}

// NewPageRank returns PageRank with the conventional d=0.85, ε=1e-3.
func NewPageRank() *PageRank { return &PageRank{Damping: 0.85, Epsilon: 1e-3} }

func (p *PageRank) Name() string               { return "PageRank" }
func (p *PageRank) Direction() model.Direction { return model.Out }
func (p *PageRank) Identity() float64          { return 0 }
func (p *PageRank) Acc(a, b float64) float64   { return a + b }
func (p *PageRank) Algebra() model.Algebra     { return sumCopy }
func (p *PageRank) IsActive(s model.State) bool {
	return math.Abs(s.Delta) > p.Epsilon
}
func (p *PageRank) Init(model.VertexID, model.GraphInfo) (model.State, bool) {
	return model.State{Value: 0, Delta: 1 - p.Damping}, true
}
func (p *PageRank) Apply(_ model.VertexID, s *model.State, deg int) (float64, bool) {
	d := s.Delta
	s.Value += d
	s.Delta = 0
	if deg == 0 {
		return 0, false
	}
	return p.Damping * d / float64(deg), true
}
func (p *PageRank) Contribution(seed float64, _ float32) float64 { return seed }

// PPR is personalized PageRank: the random walk restarts at Source, so only
// the source injects initial mass.
type PPR struct {
	Source  model.VertexID
	Damping float64
	Epsilon float64
}

// NewPPR returns personalized PageRank from source with d=0.85, ε=1e-6.
func NewPPR(source model.VertexID) *PPR {
	return &PPR{Source: source, Damping: 0.85, Epsilon: 1e-6}
}

func (p *PPR) Name() string               { return "PPR" }
func (p *PPR) Direction() model.Direction { return model.Out }
func (p *PPR) Identity() float64          { return 0 }
func (p *PPR) Acc(a, b float64) float64   { return a + b }
func (p *PPR) Algebra() model.Algebra     { return sumCopy }
func (p *PPR) IsActive(s model.State) bool {
	return math.Abs(s.Delta) > p.Epsilon
}
func (p *PPR) Init(v model.VertexID, _ model.GraphInfo) (model.State, bool) {
	if v == p.Source {
		return model.State{Value: 0, Delta: 1 - p.Damping}, true
	}
	return model.State{}, false
}
func (p *PPR) Apply(_ model.VertexID, s *model.State, deg int) (float64, bool) {
	d := s.Delta
	s.Value += d
	s.Delta = 0
	if deg == 0 {
		return 0, false
	}
	return p.Damping * d / float64(deg), true
}
func (p *PPR) Contribution(seed float64, _ float32) float64 { return seed }

// SSSP is the single-source shortest path of Fig. 7(b): min-accumulate
// candidate distances, relax out-edges on improvement.
type SSSP struct {
	Source model.VertexID
}

// NewSSSP returns SSSP from the given source.
func NewSSSP(source model.VertexID) *SSSP { return &SSSP{Source: source} }

func (p *SSSP) Name() string               { return "SSSP" }
func (p *SSSP) Direction() model.Direction { return model.Out }
func (p *SSSP) Identity() float64          { return model.Inf }
func (p *SSSP) Acc(a, b float64) float64   { return min(a, b) }
func (p *SSSP) Algebra() model.Algebra     { return minAddWeight }
func (p *SSSP) IsActive(s model.State) bool {
	return s.Delta < s.Value
}
func (p *SSSP) Init(v model.VertexID, _ model.GraphInfo) (model.State, bool) {
	if v == p.Source {
		return model.State{Value: model.Inf, Delta: 0}, true
	}
	return model.State{Value: model.Inf, Delta: model.Inf}, false
}
func (p *SSSP) Apply(_ model.VertexID, s *model.State, _ int) (float64, bool) {
	improved := s.Delta < s.Value
	if improved {
		s.Value = s.Delta
	}
	s.Delta = model.Inf
	return s.Value, improved
}
func (p *SSSP) Contribution(seed float64, w float32) float64 {
	return seed + float64(w)
}

// BFS computes hop distance from Source (SSSP over unit weights).
type BFS struct {
	Source model.VertexID
}

// NewBFS returns BFS from the given source.
func NewBFS(source model.VertexID) *BFS { return &BFS{Source: source} }

func (p *BFS) Name() string               { return "BFS" }
func (p *BFS) Direction() model.Direction { return model.Out }
func (p *BFS) Identity() float64          { return model.Inf }
func (p *BFS) Acc(a, b float64) float64   { return min(a, b) }
func (p *BFS) Algebra() model.Algebra     { return minAddOne }
func (p *BFS) IsActive(s model.State) bool {
	return s.Delta < s.Value
}
func (p *BFS) Init(v model.VertexID, _ model.GraphInfo) (model.State, bool) {
	if v == p.Source {
		return model.State{Value: model.Inf, Delta: 0}, true
	}
	return model.State{Value: model.Inf, Delta: model.Inf}, false
}
func (p *BFS) Apply(_ model.VertexID, s *model.State, _ int) (float64, bool) {
	improved := s.Delta < s.Value
	if improved {
		s.Value = s.Delta
	}
	s.Delta = model.Inf
	return s.Value, improved
}
func (p *BFS) Contribution(seed float64, _ float32) float64 { return seed + 1 }

// WCC labels each weakly connected component with its minimum vertex ID by
// min-label propagation over both edge directions.
type WCC struct{}

// NewWCC returns a weakly-connected-components program.
func NewWCC() *WCC { return &WCC{} }

func (p *WCC) Name() string               { return "WCC" }
func (p *WCC) Direction() model.Direction { return model.Both }
func (p *WCC) Identity() float64          { return model.Inf }
func (p *WCC) Acc(a, b float64) float64   { return min(a, b) }
func (p *WCC) Algebra() model.Algebra     { return minCopy }
func (p *WCC) IsActive(s model.State) bool {
	return s.Delta < s.Value
}
func (p *WCC) Init(v model.VertexID, _ model.GraphInfo) (model.State, bool) {
	return model.State{Value: model.Inf, Delta: float64(v)}, true
}
func (p *WCC) Apply(_ model.VertexID, s *model.State, _ int) (float64, bool) {
	improved := s.Delta < s.Value
	if improved {
		s.Value = s.Delta
	}
	s.Delta = model.Inf
	return s.Value, improved
}
func (p *WCC) Contribution(seed float64, _ float32) float64 { return seed }

// SSWP computes the widest (maximum-bottleneck) path width from Source:
// max-accumulate, bottleneck on each edge.
type SSWP struct {
	Source model.VertexID
}

// NewSSWP returns a widest-path program from the given source.
func NewSSWP(source model.VertexID) *SSWP { return &SSWP{Source: source} }

func (p *SSWP) Name() string               { return "SSWP" }
func (p *SSWP) Direction() model.Direction { return model.Out }
func (p *SSWP) Identity() float64          { return math.Inf(-1) }
func (p *SSWP) Acc(a, b float64) float64   { return max(a, b) }
func (p *SSWP) Algebra() model.Algebra     { return maxMinWeight }
func (p *SSWP) IsActive(s model.State) bool {
	return s.Delta > s.Value
}
func (p *SSWP) Init(v model.VertexID, _ model.GraphInfo) (model.State, bool) {
	if v == p.Source {
		return model.State{Value: 0, Delta: model.Inf}, true
	}
	return model.State{Value: 0, Delta: math.Inf(-1)}, false
}
func (p *SSWP) Apply(_ model.VertexID, s *model.State, _ int) (float64, bool) {
	improved := s.Delta > s.Value
	if improved {
		s.Value = s.Delta
	}
	s.Delta = math.Inf(-1)
	return s.Value, improved
}
func (p *SSWP) Contribution(seed float64, w float32) float64 {
	return min(seed, float64(w))
}

// KCore marks the k-core: vertices keep their effective undirected degree as
// value; a vertex dropping below K removes itself (value becomes -1) and
// notifies every neighbour. At the fixed point, value >= K identifies the
// k-core members.
type KCore struct {
	K int
}

// NewKCore returns a k-core program for the given k.
func NewKCore(k int) *KCore { return &KCore{K: k} }

func (p *KCore) Name() string               { return "KCore" }
func (p *KCore) Direction() model.Direction { return model.Both }
func (p *KCore) Identity() float64          { return 0 }
func (p *KCore) Acc(a, b float64) float64   { return a + b }
func (p *KCore) Algebra() model.Algebra     { return sumCopy }
func (p *KCore) IsActive(s model.State) bool {
	return s.Delta != 0
}
func (p *KCore) Init(v model.VertexID, g model.GraphInfo) (model.State, bool) {
	deg := g.OutDegree(v) + g.InDegree(v)
	return model.State{Value: float64(deg), Delta: 0}, true
}
func (p *KCore) Apply(_ model.VertexID, s *model.State, _ int) (float64, bool) {
	s.Value += s.Delta
	s.Delta = 0
	if s.Value >= 0 && s.Value < float64(p.K) {
		s.Value = -1 // leave the core, notify neighbours once
		return -1, true
	}
	return 0, false
}
func (p *KCore) Contribution(seed float64, _ float32) float64 { return seed }

// Degree is a one-iteration program assigning each vertex its out-degree;
// it exists as the cheapest possible smoke-test job.
type Degree struct{}

// NewDegree returns the degree program.
func NewDegree() *Degree { return &Degree{} }

func (p *Degree) Name() string                { return "Degree" }
func (p *Degree) Direction() model.Direction  { return model.Out }
func (p *Degree) Identity() float64           { return 0 }
func (p *Degree) Acc(a, b float64) float64    { return a + b }
func (p *Degree) Algebra() model.Algebra      { return sumCopy }
func (p *Degree) IsActive(s model.State) bool { return s.Delta != 0 }
func (p *Degree) Init(v model.VertexID, g model.GraphInfo) (model.State, bool) {
	return model.State{Value: 0, Delta: float64(g.OutDegree(v))}, true
}
func (p *Degree) Apply(_ model.VertexID, s *model.State, _ int) (float64, bool) {
	s.Value += s.Delta
	s.Delta = 0
	return 0, false
}
func (p *Degree) Contribution(seed float64, _ float32) float64 { return seed }

// Result implements model.Resulter: members of the k-core report their core
// degree, everyone else (including edge-less vertices that never enter any
// k≥1 core) reports -1.
func (p *KCore) Result(_ model.VertexID, s model.State) float64 {
	if s.Value >= float64(p.K) {
		return s.Value
	}
	return -1
}
