package graph500

import (
	"fmt"

	"swbfs/internal/algos"
	"swbfs/internal/graph"
)

// The SSSP kernel: Graph500 added single-source shortest paths as its
// second kernel (spec v3) shortly after the paper's publication, and the
// paper itself names SSSP first among the algorithms its techniques
// transfer to (Section 8). Run benchmarks the suite's distributed SSSP
// ("sssp", or "delta-sssp" for delta-stepping) under the same protocol as
// BFS, on the weights SSSPWeights draws.

// SSSPWeights draws the weights of the SSSP benchmark's graph from seed:
// uniform in [1, 255], the spec's byte-sized weights. Run benchmarks a
// weighted kernel on them, and a resumed one rebuilds them the same way.
func SSSPWeights(g *graph.CSR, seed int64) (*graph.WeightedCSR, error) {
	return graph.GenerateWeights(g, 255, seed)
}

// ValidateSSSP checks a distance array against the Graph500 SSSP rules:
//
//  1. dist[root] == 0;
//  2. every edge (u, v, w) is slack-consistent: |dist[u] - dist[v]| <= w,
//     and both endpoints are reached or both unreached;
//  3. every reached non-root vertex has a tight incoming edge
//     (dist[v] == dist[u] + w for some neighbour u) — distances are
//     achievable, not just consistent.
func ValidateSSSP(wg *graph.WeightedCSR, root graph.Vertex, dist []int64) error {
	if int64(len(dist)) != wg.N {
		return fmt.Errorf("graph500: distance array has %d entries for %d vertices", len(dist), wg.N)
	}
	if root < 0 || int64(root) >= wg.N {
		return fmt.Errorf("graph500: root %d out of range", root)
	}
	if dist[root] != 0 {
		return fmt.Errorf("graph500: dist[root=%d] = %d, want 0", root, dist[root])
	}
	for u := graph.Vertex(0); int64(u) < wg.N; u++ {
		uReached := dist[u] < algos.InfDistance
		if !uReached && dist[u] != algos.InfDistance {
			return fmt.Errorf("graph500: vertex %d has garbage distance %d", u, dist[u])
		}
		lo, hi := wg.RowPtr[u], wg.RowPtr[u+1]
		tight := u == root || !uReached
		for i := lo; i < hi; i++ {
			v := wg.Col[i]
			w := wg.Weights.W[i]
			vReached := dist[v] < algos.InfDistance
			if uReached != vReached {
				return fmt.Errorf("graph500: edge (%d, %d) spans reached/unreached", u, v)
			}
			if !uReached {
				continue
			}
			d := dist[u] - dist[v]
			if d > w || -d > w {
				return fmt.Errorf("graph500: edge (%d, %d, w=%d) violates slack: %d vs %d",
					u, v, w, dist[u], dist[v])
			}
			if dist[u] == dist[v]+w {
				tight = true
			}
		}
		if uReached && !tight {
			return fmt.Errorf("graph500: reached vertex %d (dist %d) has no tight incoming edge", u, dist[u])
		}
	}
	return nil
}
