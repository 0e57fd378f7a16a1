package graph500

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"swbfs/internal/graph"
)

// validateChunkEdges shards the edge pass by stored edges, not by vertices.
const validateChunkEdges = 32 << 10

// validateScratch is what ValidateParallel recycles across calls.
type validateScratch struct {
	level []int32 // one per vertex, -1 = unvisited
	chain []int32 // parent-chain stack of the level resolution
}

var validateScratchPool = sync.Pool{New: func() any { return new(validateScratch) }}

// ValidateParallel is the scaled validation pass the paper alludes to in
// Section 5 ("we ... optimize the BFS verification algorithm to scale the
// entire benchmark"): Validate's rules, verdict and levels at one random
// memory access per stored edge.
//
// Levels are resolved first, sequentially, by memoized parent chasing (O(N);
// rules 2 and 4) into an int32 array. From then on a vertex is visited
// exactly when its level is >= 0, so the edge pass gathers level[v] alone:
// one unsigned compare against a window hoisted per row settles both halves
// of rule 5 (both endpoints visited or both not, levels at most one apart).
// Rule 3 rides the same scan: parent[u] is met in u's own row, and only if it
// is not is g.HasEdge(parent[u], u) consulted before rejecting. Precondition:
// g is symmetric — graph.BuildCSR's postcondition, which rule 5 presumes
// anyway; a tree edge stored only as (u, parent[u]) would pass here and not
// in Validate.
//
// The pass is cut into chunks of validateChunkEdges stored edges (long rows
// are split) that `workers` goroutines (GOMAXPROCS if <= 0) claim from a
// shared counter, filling the returned levels as they go; the lowest-numbered
// failing chunk's error is returned whatever the worker count or scheduling.
// The int32 levels and chain stack are pooled, only the result is allocated;
// beyond MaxInt32 vertices Validate does the work.
func ValidateParallel(g *graph.CSR, root graph.Vertex, parent []graph.Vertex, workers int) ([]int64, error) {
	if g.N > math.MaxInt32 {
		return Validate(g, root, parent)
	}
	if int64(len(parent)) != g.N {
		return nil, fmt.Errorf("graph500: parent map has %d entries for %d vertices", len(parent), g.N)
	}
	if root < 0 || int64(root) >= g.N {
		return nil, fmt.Errorf("graph500: root %d out of range", root)
	}
	if parent[root] != root {
		return nil, fmt.Errorf("graph500: parent[root=%d] = %d, want self", root, parent[root])
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	sc := validateScratchPool.Get().(*validateScratch)
	defer validateScratchPool.Put(sc)
	if int64(cap(sc.level)) < g.N {
		sc.level = make([]int32, g.N)
	}
	level := sc.level[:g.N]
	for i := range level {
		level[i] = -1
	}

	// Sequential level resolution (rules 2, 4 and the cycle check),
	// iterative to avoid deep recursion on path-like graphs.
	level[root] = 0
	for v := range level {
		if parent[v] == graph.NoVertex || level[v] >= 0 {
			continue
		}
		chain := sc.chain[:0]
		u := graph.Vertex(v)
		for level[u] < 0 {
			if int64(len(chain)) > g.N {
				return nil, fmt.Errorf("graph500: parent chain from %d exceeds vertex count (cycle)", v)
			}
			p := parent[u]
			if p == graph.NoVertex {
				return nil, fmt.Errorf("graph500: visited vertex %d chains to unvisited parent", u)
			}
			if p < 0 || int64(p) >= g.N {
				return nil, fmt.Errorf("graph500: vertex %d has out-of-range parent %d", u, p)
			}
			chain = append(chain, int32(u))
			u = p
		}
		base := level[u]
		for i := len(chain) - 1; i >= 0; i-- {
			base++
			level[chain[i]] = base
		}
		sc.chain = chain
	}

	// Parallel edge pass (rules 3 and 5) over edge-count chunks.
	var (
		out    = make([]int64, g.N)
		chunks = g.NumEdges()/validateChunkEdges + 1
		next   atomic.Int64
		failed atomic.Int64 // lowest chunk that has failed so far
		errMu  sync.Mutex
		err    error
		wg     sync.WaitGroup
	)
	failed.Store(chunks)
	workers = int(min(int64(workers), chunks))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Claimed in order: every chunk below a failed one still runs.
				c := next.Add(1) - 1
				if c >= failed.Load() {
					return
				}
				if cerr := validateChunk(g, root, parent, level, out, c); cerr != nil {
					errMu.Lock()
					if c < failed.Load() {
						failed.Store(c)
						err = cerr
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// validateChunk checks chunk c: rule 5 on its stored edges, rule 3 and the
// out[] level for the vertices whose rows start in it (trailing isolated
// vertices start at NumEdges, in the last chunk).
func validateChunk(g *graph.CSR, root graph.Vertex, parent []graph.Vertex, level []int32, out []int64, c int64) error {
	eLo := c * validateChunkEdges
	eHi := min(eLo+validateChunkEdges, g.NumEdges())
	rowAt := func(e int64) int64 { // first row starting at or after edge e
		return int64(sort.Search(int(g.N), func(u int) bool { return g.RowPtr[u] >= e }))
	}
	lo, hi := rowAt(eLo), rowAt(eLo+validateChunkEdges)
	// Row lo-1 may run on into this chunk, for rule 5 only; clipped to the
	// chunk its slice is empty when it does not.
	for u := max(lo-1, 0); u < hi; u++ {
		lu, pu := level[u], parent[u]
		// Acceptable neighbour levels form one window: {-1} when u is
		// unvisited, [max(lu-1, 0), lu+1] when it is visited.
		floor, span := int32(-1), uint32(0)
		if lu >= 0 {
			floor = max(lu-1, 0)
			span = uint32(lu + 1 - floor)
		}
		seen := false
		for _, v := range g.Col[max(g.RowPtr[u], eLo):min(g.RowPtr[u+1], eHi)] {
			if lv := level[v]; uint32(lv-floor) > span {
				if (lu >= 0) != (lv >= 0) {
					return fmt.Errorf("graph500: edge (%d, %d) spans visited/unvisited", u, v)
				}
				return fmt.Errorf("graph500: edge (%d, %d) spans levels %d and %d", u, v, lu, lv)
			}
			if v == pu {
				seen = true
			}
		}
		if u < lo {
			continue
		}
		out[u] = int64(lu)
		if lu >= 0 && graph.Vertex(u) != root && !seen && !g.HasEdge(pu, graph.Vertex(u)) {
			return fmt.Errorf("graph500: tree edge (%d, %d) not in graph", pu, u)
		}
	}
	return nil
}
