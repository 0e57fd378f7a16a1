package algos

import (
	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// WCCResult is the merged output.
type WCCResult struct {
	// Label[v] is the smallest vertex ID in v's component.
	Label []graph.Vertex
	Info  *RunInfo
	// Components counts distinct components (including singletons).
	Components int64
}

// WCC computes weakly connected components on the simulated machine.
func WCC(cfg core.Config, g *graph.CSR) (*WCCResult, error) {
	return wccRun(cfg, g, nil)
}

// wccRun is min-label propagation, the min-relaxation round at weight zero:
// every vertex starts labelled with its own ID, every vertex with an edge
// starts active, and at convergence each vertex carries the smallest vertex
// ID of its component — deterministic regardless of message order.
func wccRun(cfg core.Config, g *graph.CSR, from *ckpt.Checkpoint) (*WCCResult, error) {
	nodes, info, err := Run(cfg, g, RunOptions{Kernel: "wcc", Root: graph.NoVertex, Resume: from}, func(ctx *NodeCtx) (*relaxNode[graph.Vertex], error) {
		r := newRelaxNode[graph.Vertex](ctx, nil)
		for local := range r.val {
			r.val[local] = ctx.Global(int64(local))
			if ctx.Sub.Degree(int64(local)) > 0 {
				r.active.Set(int64(local))
				r.pending++
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	res := &WCCResult{Label: relaxed(nodes), Info: info}
	// A component's label is its smallest vertex, so each component has
	// exactly one vertex labelled with itself.
	for v, l := range res.Label {
		if l == graph.Vertex(v) {
			res.Components++
		}
	}
	return res, nil
}

// ReferenceWCC is the sequential union-find oracle; it returns the same
// min-ID-of-component labelling the distributed algorithm converges to.
func ReferenceWCC(g *graph.CSR) []graph.Vertex {
	parent := make([]graph.Vertex, g.N)
	for i := range parent {
		parent[i] = graph.Vertex(i)
	}
	var find func(v graph.Vertex) graph.Vertex
	find = func(v graph.Vertex) graph.Vertex {
		for parent[v] != v {
			parent[v] = parent[parent[v]] // path halving
			v = parent[v]
		}
		return v
	}
	union := func(a, b graph.Vertex) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb { // keep the smaller ID as root
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for u := graph.Vertex(0); int64(u) < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			union(u, v)
		}
	}
	labels := make([]graph.Vertex, g.N)
	for v := graph.Vertex(0); int64(v) < g.N; v++ {
		labels[v] = find(v)
	}
	return labels
}
