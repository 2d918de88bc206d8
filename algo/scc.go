package algo

import (
	"math"

	"cgraph/model"
)

// SCC finds strongly connected components with the iterative
// forward-backward label-peeling scheme of Hong et al. (the paper's SCC
// benchmark [16]) expressed in the LTP programming model:
//
//   - Forward phase (out-edges): max-vertex-ID propagation over the
//     unassigned subgraph colours every vertex with the largest ID that
//     reaches it.
//   - Backward phase (in-edges): each colour's root (colour == own ID)
//     floods a confirmation flag backwards through same-coloured vertices;
//     every vertex reached belongs to the root's SCC and is assigned.
//   - Peel and repeat on the remaining unassigned vertices. Each round
//     assigns at least the root of the largest unassigned ID, so the
//     process terminates.
//
// A flag masked by a larger colour (Acc is max) merely delays that vertex's
// assignment to a later round, never mis-assigns it. The assignment table is
// job-private bookkeeping: use one SCC instance per job.
type SCC struct {
	phase    int // 0 = forward, 1 = backward
	assigned []float64
	colors   []float64
}

// NewSCC returns a fresh SCC program instance.
func NewSCC() *SCC { return &SCC{} }

const (
	sccUnassigned = -1
	// sccDone marks a replica that has already forwarded the confirmation
	// flag, so echoes bouncing around the cycle are filtered out.
	sccDone = -2
)

func (p *SCC) Name() string { return "SCC" }

func (p *SCC) Direction() model.Direction {
	if p.phase == 0 {
		return model.Out
	}
	return model.In
}

func (p *SCC) Identity() float64        { return math.Inf(-1) }
func (p *SCC) Acc(a, b float64) float64 { return math.Max(a, b) }

func (p *SCC) IsActive(s model.State) bool {
	if p.phase == 0 {
		return s.Delta > s.Value
	}
	// Backward: a pending flag activates only when it matches the
	// vertex's own colour (held in Value).
	return !math.IsInf(s.Delta, -1) && s.Delta == s.Value
}

func (p *SCC) Init(v model.VertexID, g model.GraphInfo) (model.State, bool) {
	if p.assigned == nil {
		n := g.NumVertices()
		p.assigned = make([]float64, n)
		p.colors = make([]float64, n)
		for i := range p.assigned {
			p.assigned[i] = sccUnassigned
		}
	}
	// Forward round 1: every vertex floods its own ID.
	return model.State{Value: math.Inf(-1), Delta: float64(v)}, true
}

func (p *SCC) Apply(v model.VertexID, s *model.State, _ int) (float64, bool) {
	d := s.Delta
	s.Delta = math.Inf(-1)
	if p.phase == 0 {
		if p.assigned[v] != sccUnassigned {
			return 0, false
		}
		if d > s.Value {
			s.Value = d
			return s.Value, true
		}
		return 0, false
	}
	if s.Value == sccDone {
		return 0, false
	}
	// Backward: a matching flag confirms the vertex and propagates. The
	// latch on Value makes every replica forward the flag exactly once —
	// each replica owns a disjoint slice of the vertex's in-edges, so all
	// of them must scatter for the flood to cover the component. Every
	// replica latches in the same iteration, from the same pushed flag, so
	// NextPhase reads the assignment off the master's latch: Apply writes
	// nothing but the replica's own state, and the replicas of one vertex
	// may be applied concurrently.
	if d == p.colors[v] && s.Value == d {
		s.Value = sccDone
		return d, true
	}
	return 0, false
}

func (p *SCC) Contribution(seed float64, _ float32) float64 { return seed }

// NextPhase alternates forward colouring and backward confirmation until
// every vertex with edges is assigned, then writes assignments back into the
// states.
func (p *SCC) NextPhase(view model.StateView) bool {
	n := view.NumVertices()
	if DebugHook != nil {
		defer DebugHook(p.phase, p.colors, p.assigned)
	}
	if p.phase == 0 {
		// Forward converged: freeze colours, seed backward roots.
		progress := false
		for i := 0; i < n; i++ {
			v := model.VertexID(i)
			if p.assigned[i] != sccUnassigned {
				continue
			}
			c := view.Get(v).Value
			if math.IsInf(c, -1) {
				// Isolated replica-less vertex: its own component.
				p.assigned[i] = float64(i)
				continue
			}
			p.colors[i] = c
			if c == float64(i) {
				// Root: flag itself.
				view.Set(v, model.State{Value: c, Delta: c}, true)
				progress = true
			} else {
				view.Set(v, model.State{Value: c, Delta: math.Inf(-1)}, false)
			}
		}
		if !progress {
			// Nothing left to confirm: everything is assigned.
			return false
		}
		p.phase = 1
		return true
	}
	// Backward converged: assign every latched vertex its colour's
	// component, peel, restart forward over leftovers.
	for i := 0; i < n; i++ {
		if p.assigned[i] == sccUnassigned && view.Get(model.VertexID(i)).Value == sccDone {
			p.assigned[i] = p.colors[i]
		}
	}
	p.phase = 0
	remaining := false
	for i := 0; i < n; i++ {
		v := model.VertexID(i)
		if p.assigned[i] != sccUnassigned {
			view.Set(v, model.State{Value: p.assigned[i], Delta: math.Inf(-1)}, false)
			continue
		}
		remaining = true
		view.Set(v, model.State{Value: math.Inf(-1), Delta: float64(i)}, true)
	}
	return remaining
}

// Accept implements model.Filterer: during the backward phase only a flag
// matching the receiver's own colour (held in Value) may fold into Delta,
// so a larger colour's flag can never mask the matching one.
func (p *SCC) Accept(s model.State, contribution float64) bool {
	if p.phase == 0 {
		return true
	}
	return contribution == s.Value // latched (sccDone) replicas reject echoes
}

// Result implements model.Resulter: the component label of v.
func (p *SCC) Result(v model.VertexID, _ model.State) float64 {
	if p.assigned == nil || p.assigned[v] == sccUnassigned {
		return float64(v)
	}
	return p.assigned[v]
}

// DebugUnassigned reports how many vertices remain unassigned (testing aid).
func (p *SCC) DebugUnassigned() int {
	n := 0
	for _, a := range p.assigned {
		if a == sccUnassigned {
			n++
		}
	}
	return n
}

// DebugHook, when set, is invoked at every phase transition with the phase
// just completed and the colour/assignment tables (testing aid).
var DebugHook func(completedPhase int, colors, assigned []float64)
