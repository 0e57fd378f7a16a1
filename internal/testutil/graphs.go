package testutil

import (
	"testing"

	"swbfs/internal/graph"
)

// FirstConnected picks the lowest vertex with a neighbour. Kronecker graphs
// have isolated vertices; a rooted kernel started there would stop after
// one level.
func FirstConnected(t testing.TB, g *graph.CSR) graph.Vertex {
	t.Helper()
	for v := graph.Vertex(0); int64(v) < g.N; v++ {
		if g.Degree(v) > 0 {
			return v
		}
	}
	t.Fatal("graph has no edges")
	return graph.NoVertex
}

// Weighted draws edge weights in [1, 64] over g from seed: the weighted
// graph the kernel suites run SSSP and delta-stepping on.
func Weighted(t testing.TB, g *graph.CSR, seed int64) *graph.WeightedCSR {
	t.Helper()
	wg, err := graph.GenerateWeights(g, 64, seed)
	if err != nil {
		t.Fatal(err)
	}
	return wg
}

// Relabelled returns g with every vertex v renamed (v+1) mod N. It has the
// vertex and edge counts of g, so a checkpoint's fingerprint cannot tell
// the two apart, but it is another graph.
func Relabelled(t testing.TB, g *graph.CSR) *graph.CSR {
	t.Helper()
	edges := g.Edges()
	for i, e := range edges {
		edges[i] = graph.Edge{From: (e.From + 1) % graph.Vertex(g.N), To: (e.To + 1) % graph.Vertex(g.N)}
	}
	h, err := graph.BuildCSR(g.N, edges)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatalf("relabelling changed the edge count: %d, want %d", h.NumEdges(), g.NumEdges())
	}
	return h
}
