package algos

import (
	"encoding/json"
	"fmt"
	"math"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// InfDistance marks unreachable vertices in SSSP output.
const InfDistance = int64(math.MaxInt64 / 4)

// ssspNode is one node's Bellman-Ford state: frontier-driven relaxation,
// the distributed analogue of the BFS Forward Generator/Handler pair with
// (vertex, tentative distance) messages instead of (parent, child).
type ssspNode struct {
	ctx     *NodeCtx
	weights []int64 // aligned with ctx.Sub.Col
	dist    []int64
	active  *graph.Bitmap
	pending int64
	// activated counts, per shard, the vertices Handle activated this round.
	activated tally
}

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

func ssspRun(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, from *ckpt.Checkpoint) (*SSSPResult, error) {
	opts := RunOptions{Kernel: "sssp", Root: root, Weights: wg.Weights, Resume: from, weighted: true, roots: []graph.Vertex{root}}
	nodes, info, err := Run(cfg, wg.CSR, opts, func(ctx *NodeCtx) (*ssspNode, error) {
		n := ctx.Sub.NumVertices()
		sn := &ssspNode{
			ctx:       ctx,
			weights:   extractLocalWeights(wg, ctx),
			dist:      make([]int64, n),
			active:    graph.NewBitmap(n),
			activated: make(tally, ctx.Workers),
		}
		for i := range sn.dist {
			sn.dist[i] = InfDistance
		}
		if local, ok := ctx.Own(root); ok {
			sn.dist[local] = 0
			sn.active.Set(local)
			sn.pending = 1
		}
		return sn, nil
	})
	if err != nil {
		return nil, err
	}

	res := &SSSPResult{
		Dist: gather(nodes[0].ctx.Part, nodes, func(s *ssspNode) []int64 { return s.dist }),
		Info: info,
	}
	for _, sn := range nodes {
		res.Relaxations += sn.relaxations()
	}
	return res, nil
}

func (s *ssspNode) Active() int64 { return s.pending }

// Generate relaxes the out-edges of the frontier, fanning the bitmap scan
// over the node's workers in word-aligned shards (see comm.Fanout).
func (s *ssspNode) Generate(round int, out *comm.Lane) error {
	err := comm.Fanout(out, int64(len(s.active.Words())), s.ctx.Workers, s, func(s *ssspNode, out *comm.Lane, lo, hi int64) error {
		return scanBits(s.active.Words(), lo, hi, func(local int64) error {
			d := s.dist[local]
			for i := s.ctx.Sub.RowPtr[local]; i < s.ctx.Sub.RowPtr[local+1]; i++ {
				u := s.ctx.Sub.Col[i]
				if err := out.Send(s.ctx.Part.Owner(u), comm.Pair{u, graph.Vertex(d + s.weights[i])}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	s.active.Reset()
	return err
}

// Handle keeps the minimum tentative distance per vertex and activates
// every vertex it improves.
func (s *ssspNode) Handle(shard int, pairs []comm.Pair) {
	for _, p := range pairs {
		local, nd := int64(p[0]), int64(p[1])
		if nd < s.dist[local] {
			s.dist[local] = nd
			if !s.active.Get(local) {
				s.active.Set(local)
				s.activated[shard]++
			}
		}
	}
}

// pairFold declares Bellman-Ford's exact fold: Handle keeps the minimum
// tentative distance, so the smallest of a vertex's distances leaves the
// state all of them would.
func (s *ssspNode) pairFold() fold { return foldMin }

func (s *ssspNode) EndRound(round int) error {
	s.pending = s.activated.drain()
	return nil
}

// ssspCkpt is the checkpoint payload: the tentative distances and the
// frontier entering the next round.
type ssspCkpt struct {
	Dist    []int64  `json:"dist"`
	Active  []uint64 `json:"active"`
	Pending int64    `json:"pending"`
}

func (s *ssspNode) CheckpointState() any {
	return &ssspCkpt{
		Dist:    append([]int64(nil), s.dist...),
		Active:  append([]uint64(nil), s.active.Words()...),
		Pending: s.pending,
	}
}

func (s *ssspNode) RestoreState(data []byte) error {
	var c ssspCkpt
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("sssp state: %w", err)
	}
	if len(c.Dist) != len(s.dist) {
		return fmt.Errorf("sssp state: %d distances, partition gives %d", len(c.Dist), len(s.dist))
	}
	copy(s.dist, c.Dist)
	s.active.LoadWords(c.Active)
	s.pending = c.Pending
	return nil
}

func (s *ssspNode) relaxations() int64 {
	// Each settled vertex relaxed its out-edges at least once; use the
	// degree sum of reached vertices as the conventional TEPS numerator.
	var r int64
	for local := int64(0); local < s.ctx.Sub.NumVertices(); local++ {
		if s.dist[local] < InfDistance {
			r += s.ctx.Sub.Degree(local)
		}
	}
	return r
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
	// Binary heap of (dist, vertex).
	type item struct {
		d int64
		v graph.Vertex
	}
	heap := []item{{0, root}}
	push := func(it item) {
		heap = append(heap, it)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].d <= heap[i].d {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() item {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && heap[l].d < heap[small].d {
				small = l
			}
			if r < last && heap[r].d < heap[small].d {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	for len(heap) > 0 {
		it := pop()
		if it.d > dist[it.v] {
			continue
		}
		lo, hi := wg.RowPtr[it.v], wg.RowPtr[it.v+1]
		for i := lo; i < hi; i++ {
			u := wg.Col[i]
			nd := it.d + wg.Weights.W[i]
			if nd < dist[u] {
				dist[u] = nd
				push(item{nd, u})
			}
		}
	}
	return dist
}
