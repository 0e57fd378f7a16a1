package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// Weights attaches per-edge integer weights to a CSR: Weights.W is aligned
// with CSR.Col (W[i] is the weight of the i-th stored directed edge).
// Symmetric graphs carry each undirected edge twice; GenerateWeights
// assigns both directions the same weight, as SSSP on undirected graphs
// requires.
type Weights struct {
	W []int64
}

// WeightedCSR pairs a graph with its weights.
type WeightedCSR struct {
	*CSR
	Weights *Weights
}

// EdgeWeight returns the weight of edge (u, v), or an error if absent.
// Binary search over the sorted adjacency keeps it O(log degree).
func (w *WeightedCSR) EdgeWeight(u, v Vertex) (int64, error) {
	lo, hi := w.RowPtr[u], w.RowPtr[u+1]
	adj := w.Col[lo:hi]
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i < len(adj) && adj[i] == v {
		return w.Weights.W[lo+int64(i)], nil
	}
	return 0, fmt.Errorf("graph: edge (%d, %d) not present", u, v)
}

// Validate checks alignment and positivity (shortest-path algorithms here
// assume positive weights).
func (w *WeightedCSR) Validate() error {
	if err := w.CSR.Validate(); err != nil {
		return err
	}
	if int64(len(w.Weights.W)) != w.NumEdges() {
		return fmt.Errorf("graph: %d weights for %d edges", len(w.Weights.W), w.NumEdges())
	}
	for i, wt := range w.Weights.W {
		if wt <= 0 {
			return fmt.Errorf("graph: non-positive weight %d at edge index %d", wt, i)
		}
	}
	// Symmetry of weights: w(u,v) == w(v,u).
	for u := Vertex(0); int64(u) < w.N; u++ {
		for i := w.RowPtr[u]; i < w.RowPtr[u+1]; i++ {
			v := w.Col[i]
			back, err := w.EdgeWeight(v, u)
			if err != nil {
				return fmt.Errorf("graph: missing reverse edge for (%d, %d)", u, v)
			}
			if back != w.Weights.W[i] {
				return fmt.Errorf("graph: asymmetric weight on (%d, %d): %d vs %d", u, v, w.Weights.W[i], back)
			}
		}
	}
	return nil
}

// GenerateWeights assigns deterministic pseudo-random weights in
// [1, maxWeight] to a symmetric CSR, identical in both directions of every
// undirected edge.
func GenerateWeights(g *CSR, maxWeight int64, seed int64) (*WeightedCSR, error) {
	if maxWeight < 1 {
		return nil, fmt.Errorf("graph: max weight %d must be >= 1", maxWeight)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7765_6967_6874))
	w := &Weights{W: make([]int64, g.NumEdges())}
	out := &WeightedCSR{CSR: g, Weights: w}
	for u := Vertex(0); int64(u) < g.N; u++ {
		for i := g.RowPtr[u]; i < g.RowPtr[u+1]; i++ {
			v := g.Col[i]
			if u < v {
				w.W[i] = rng.Int63n(maxWeight) + 1
			}
		}
	}
	// Mirror onto the reverse direction.
	for u := Vertex(0); int64(u) < g.N; u++ {
		for i := g.RowPtr[u]; i < g.RowPtr[u+1]; i++ {
			v := g.Col[i]
			if u > v {
				wt, err := out.EdgeWeight(v, u)
				if err != nil {
					return nil, err
				}
				w.W[i] = wt
			}
		}
	}
	return out, nil
}
