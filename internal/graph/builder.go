package graph

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// BuildCSR constructs a simple, undirected graph in CSR form from a raw edge
// list, mirroring the Graph500 "construct graph data structures" step:
//
//   - self loops are dropped,
//   - every edge is inserted in both directions (symmetrization),
//   - parallel edges are collapsed,
//   - each adjacency list is sorted ascending.
//
// n is the number of vertices; edges referencing vertices outside [0, n)
// are rejected.
//
// Construction is a counting sort by source followed by per-row sort and
// dedup, parallel over row ranges — O(M log d) with small constants rather
// than a global O(M log M) comparison sort, since this host-side step
// dominates benchmark setup time at large scales.
func BuildCSR(n int64, edges []Edge) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.From < 0 || int64(e.From) >= n || e.To < 0 || int64(e.To) >= n {
			return nil, fmt.Errorf("graph: edge (%d, %d) out of range [0, %d)", e.From, e.To, n)
		}
	}

	// Pass 1: count both directions of every non-loop edge per source.
	counts := make([]int64, n+1)
	var directed int64
	for _, e := range edges {
		if e.From == e.To {
			continue
		}
		counts[e.From+1]++
		counts[e.To+1]++
		directed += 2
	}
	for v := int64(0); v < n; v++ {
		counts[v+1] += counts[v]
	}

	// Pass 2: scatter neighbours into per-row segments (counting sort by
	// source vertex).
	col := make([]Vertex, directed)
	next := make([]int64, n)
	copy(next, counts[:n])
	for _, e := range edges {
		if e.From == e.To {
			continue
		}
		col[next[e.From]] = e.To
		next[e.From]++
		col[next[e.To]] = e.From
		next[e.To]++
	}

	// Pass 3: sort and dedup each adjacency list, parallel over row
	// ranges. Each worker writes only within its rows' segments.
	workers := runtime.GOMAXPROCS(0)
	if int64(workers) > n {
		workers = int(n)
	}
	kept := make([]int64, n) // surviving degree per row
	if workers > 0 {
		var wg sync.WaitGroup
		chunk := (n + int64(workers) - 1) / int64(workers)
		for w := 0; w < workers; w++ {
			lo := int64(w) * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int64) {
				defer wg.Done()
				for v := lo; v < hi; v++ {
					seg := col[counts[v]:counts[v+1]]
					slices.Sort(seg)
					k := int64(0)
					for i, u := range seg {
						if i > 0 && u == seg[i-1] {
							continue
						}
						seg[k] = u
						k++
					}
					kept[v] = k
				}
			}(lo, hi)
		}
		wg.Wait()
	}

	// Pass 4: compact the deduplicated segments into the final CSR.
	g := &CSR{N: n, RowPtr: make([]int64, n+1)}
	var total int64
	for v := int64(0); v < n; v++ {
		total += kept[v]
		g.RowPtr[v+1] = total
	}
	g.Col = make([]Vertex, total)
	for v := int64(0); v < n; v++ {
		copy(g.Col[g.RowPtr[v]:g.RowPtr[v+1]], col[counts[v]:counts[v]+kept[v]])
	}
	return g, nil
}

// BuildKronecker is a convenience wrapper: generate a Kronecker edge list and
// construct its CSR.
func BuildKronecker(cfg KroneckerConfig) (*CSR, error) {
	edges, err := GenerateKronecker(cfg)
	if err != nil {
		return nil, err
	}
	return BuildCSR(cfg.NumVertices(), edges)
}
