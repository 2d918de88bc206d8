package server

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cgraph/api"
)

// TestTopKMatchesFullSort: the k-sized heap behind ?top=K returns the first
// K of a full sort of every vertex — value descending, NaN last, ties by
// vertex ID ascending — on vectors dense with ties and non-finite values.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -1, 2.5, 2.5, 1e-9}
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		values := make([]float64, n)
		for i := range values {
			values[i] = pool[rng.Intn(len(pool))]
		}
		all := make([]api.VertexValue, n)
		for v, x := range values {
			all[v] = api.VertexValue{Vertex: v, Value: api.Float(x)}
		}
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i], all[j]
			an, bn := math.IsNaN(float64(a.Value)), math.IsNaN(float64(b.Value))
			switch {
			case an != bn:
				return bn
			case !an && a.Value != b.Value:
				return a.Value > b.Value
			}
			return a.Vertex < b.Vertex
		})
		for _, k := range []int{1, 2, 3, 10, n - 1, n, n + 5} {
			if k < 1 {
				continue
			}
			got := topK(values, k)
			want := all[:min(k, n)]
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: %d results, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Vertex != want[i].Vertex {
					t.Fatalf("n=%d k=%d: position %d is vertex %d (%v), want %d (%v)",
						n, k, i, got[i].Vertex, got[i].Value, want[i].Vertex, want[i].Value)
				}
			}
		}
	}
}
