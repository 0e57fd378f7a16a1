package algos

import (
	"container/heap"
	"math"

	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// InfDistance marks unreachable vertices in SSSP output.
const InfDistance = int64(math.MaxInt64 / 4)

// SSSPResult is the merged output.
type SSSPResult struct {
	Dist []int64
	Info *RunInfo
	// Relaxations counts edge relaxations performed (the TEPS numerator).
	Relaxations int64
}

// SSSP computes single-source shortest paths on the simulated machine.
func SSSP(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex) (*SSSPResult, error) {
	return ssspRun(cfg, wg, root, nil)
}

// ssspRun is frontier-driven Bellman-Ford, the min-relaxation round over
// the graph's weights: every vertex starts at InfDistance, the root at 0
// and alone on the frontier.
func ssspRun(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, from *ckpt.Checkpoint) (*SSSPResult, error) {
	opts := RunOptions{Kernel: "sssp", Root: root, Weights: wg.Weights, Resume: from, weighted: true, roots: []graph.Vertex{root}}
	nodes, info, err := Run(cfg, wg.CSR, opts, func(ctx *NodeCtx) (*relaxNode[int64], error) {
		r := newRelaxNode[int64](ctx, extractLocalWeights(wg, ctx))
		for i := range r.val {
			r.val[i] = InfDistance
		}
		if local, ok := ctx.Own(root); ok {
			r.val[local] = 0
			r.active.Set(local)
			r.pending = 1
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	res := &SSSPResult{Dist: relaxed(nodes), Info: info}
	// Each settled vertex relaxed its out-edges at least once; the degree
	// sum of reached vertices is the conventional TEPS numerator.
	for v, d := range res.Dist {
		if d < InfDistance {
			res.Relaxations += wg.Degree(graph.Vertex(v))
		}
	}
	return res, nil
}

// extractLocalWeights aligns the weighted graph's edge weights with a
// node's LocalSubgraph storage.
func extractLocalWeights(wg *graph.WeightedCSR, ctx *NodeCtx) []int64 {
	out := make([]int64, 0, ctx.Sub.NumEdges())
	for local := int64(0); local < ctx.Sub.NumVertices(); local++ {
		v := ctx.Global(local)
		lo, hi := wg.RowPtr[v], wg.RowPtr[v+1]
		out = append(out, wg.Weights.W[lo:hi]...)
	}
	return out
}

// ReferenceSSSP is the sequential Dijkstra oracle.
func ReferenceSSSP(wg *graph.WeightedCSR, root graph.Vertex) []int64 {
	dist := make([]int64, wg.N)
	for i := range dist {
		dist[i] = InfDistance
	}
	if root < 0 || int64(root) >= wg.N {
		return dist
	}
	dist[root] = 0
	h := &distHeap{{0, root}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		lo, hi := wg.RowPtr[it.v], wg.RowPtr[it.v+1]
		for i := lo; i < hi; i++ {
			u := wg.Col[i]
			nd := it.d + wg.Weights.W[i]
			if nd < dist[u] {
				dist[u] = nd
				heap.Push(h, distItem{nd, u})
			}
		}
	}
	return dist
}

// distHeap is ReferenceSSSP's min-heap of tentative distances
// (container/heap).
type distHeap []distItem

type distItem struct {
	d int64
	v graph.Vertex
}

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
