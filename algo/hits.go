package algo

import (
	"math"

	"cgraph/model"
)

// HITS computes hub and authority scores (Kleinberg's
// Hyperlink-Induced Topic Search) as a phased program — the second
// multi-phase instance after SCC, exercising the engine's direction
// switching in the opposite pattern:
//
//   - authority phase (out-edges): every vertex scatters its hub score to
//     its successors; the accumulated sums become the authority scores.
//   - hub phase (in-edges): every vertex scatters its authority score to
//     its predecessors; the accumulated sums become the hub scores.
//
// Each phase is exactly one scatter sweep (IsActive always reports false,
// so the accumulated deltas wait at the masters for NextPhase to collect,
// L1-normalize and re-seed). After Rounds hub/authority alternations the
// scores converge to the principal singular vectors of the adjacency
// matrix. Results report authority scores; HubScores exposes the hubs.
// One instance per job (job-private bookkeeping).
type HITS struct {
	// Rounds is the number of hub→authority→hub alternations (default 20).
	Rounds int

	phase int // 0 = scatter hubs (Out), 1 = scatter authorities (In)
	round int
	hub   []float64
	auth  []float64
	done  bool
}

// NewHITS returns a HITS program with 20 rounds.
func NewHITS() *HITS { return &HITS{Rounds: 20} }

func (p *HITS) Name() string { return "HITS" }

func (p *HITS) Direction() model.Direction {
	if p.phase == 0 {
		return model.Out
	}
	return model.In
}

func (p *HITS) Identity() float64        { return 0 }
func (p *HITS) Acc(a, b float64) float64 { return a + b }
func (p *HITS) Algebra() model.Algebra   { return sumCopy }

// IsActive is always false: a phase is a single sweep; accumulated deltas
// are harvested by NextPhase instead of re-activating vertices.
func (p *HITS) IsActive(model.State) bool { return false }

func (p *HITS) Init(v model.VertexID, g model.GraphInfo) (model.State, bool) {
	if p.hub == nil {
		n := g.NumVertices()
		p.hub = make([]float64, n)
		p.auth = make([]float64, n)
		for i := range p.hub {
			p.hub[i] = 1 / float64(n)
		}
	}
	return model.State{Value: p.hub[v], Delta: 0}, true
}

func (p *HITS) Apply(_ model.VertexID, s *model.State, deg int) (float64, bool) {
	s.Delta = 0
	if deg == 0 || s.Value == 0 {
		return 0, false
	}
	return s.Value, true
}

func (p *HITS) Contribution(seed float64, _ float32) float64 { return seed }

// NextPhase harvests the sums accumulated by the sweep, normalizes them,
// and seeds the opposite sweep; after Rounds alternations it finishes.
func (p *HITS) NextPhase(view model.StateView) bool {
	n := view.NumVertices()
	rounds := p.Rounds
	if rounds <= 0 {
		rounds = 20
	}
	if p.phase == 0 {
		// Hub sweep done: deltas are raw authority scores.
		sum := 0.0
		for i := 0; i < n; i++ {
			d := view.Get(model.VertexID(i)).Delta
			p.auth[i] = d
			sum += math.Abs(d)
		}
		if sum == 0 {
			p.done = true
			return false
		}
		for i := 0; i < n; i++ {
			p.auth[i] /= sum
			view.Set(model.VertexID(i), model.State{Value: p.auth[i]}, p.auth[i] != 0)
		}
		p.phase = 1
		return true
	}
	// Authority sweep done: deltas are raw hub scores.
	sum := 0.0
	for i := 0; i < n; i++ {
		d := view.Get(model.VertexID(i)).Delta
		p.hub[i] = d
		sum += math.Abs(d)
	}
	p.round++
	if sum == 0 || p.round >= rounds {
		p.done = true
		return false
	}
	for i := 0; i < n; i++ {
		p.hub[i] /= sum
		view.Set(model.VertexID(i), model.State{Value: p.hub[i]}, p.hub[i] != 0)
	}
	p.phase = 0
	return true
}

// Result implements model.Resulter: the authority score of v.
func (p *HITS) Result(v model.VertexID, _ model.State) float64 {
	if p.auth == nil {
		return 0
	}
	return p.auth[v]
}

// HubScores returns the final hub vector (valid after the job completes).
func (p *HITS) HubScores() []float64 {
	out := append([]float64(nil), p.hub...)
	sum := 0.0
	for _, h := range out {
		sum += math.Abs(h)
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// Katz computes Katz centrality katz(v) = Σ_k α^k paths_k(→v), i.e. the
// fixed point of katz = β + α·Σ_in katz(u) — delta-accumulative exactly
// like PageRank but with uniform attenuation instead of degree division.
// Alpha must stay below 1/λmax of the adjacency matrix to converge; the
// default is conservative for the bundled power-law generators.
type Katz struct {
	Alpha   float64
	Beta    float64
	Epsilon float64
}

// NewKatz returns Katz centrality with α=0.005, β=1, ε=1e-6.
func NewKatz() *Katz { return &Katz{Alpha: 0.005, Beta: 1, Epsilon: 1e-6} }

func (p *Katz) Name() string               { return "Katz" }
func (p *Katz) Direction() model.Direction { return model.Out }
func (p *Katz) Identity() float64          { return 0 }
func (p *Katz) Acc(a, b float64) float64   { return a + b }
func (p *Katz) Algebra() model.Algebra     { return sumCopy }
func (p *Katz) IsActive(s model.State) bool {
	return math.Abs(s.Delta) > p.Epsilon
}
func (p *Katz) Init(model.VertexID, model.GraphInfo) (model.State, bool) {
	return model.State{Value: 0, Delta: p.Beta}, true
}
func (p *Katz) Apply(_ model.VertexID, s *model.State, deg int) (float64, bool) {
	d := s.Delta
	s.Value += d
	s.Delta = 0
	if deg == 0 {
		return 0, false
	}
	return p.Alpha * d, true
}
func (p *Katz) Contribution(seed float64, _ float32) float64 { return seed }
