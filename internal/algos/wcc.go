package algos

import (
	"encoding/json"
	"fmt"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// wccNode runs min-label propagation: every vertex starts labelled with its
// own ID; active vertices broadcast their label to neighbours; receivers
// keep the minimum. At convergence each vertex carries the smallest vertex
// ID of its component — deterministic regardless of message order.
type wccNode struct {
	ctx     *NodeCtx
	label   []graph.Vertex
	active  *graph.Bitmap
	pending int64
	// activated counts, per shard, the vertices Handle activated this round.
	activated tally
}

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

func wccRun(cfg core.Config, g *graph.CSR, from *ckpt.Checkpoint) (*WCCResult, error) {
	nodes, info, err := Run(cfg, g, RunOptions{Kernel: "wcc", Root: graph.NoVertex, Resume: from}, func(ctx *NodeCtx) (*wccNode, error) {
		n := ctx.Sub.NumVertices()
		wn := &wccNode{
			ctx:       ctx,
			label:     make([]graph.Vertex, n),
			active:    graph.NewBitmap(n),
			activated: make(tally, ctx.Workers),
		}
		for local := int64(0); local < n; local++ {
			wn.label[local] = ctx.Global(local)
			if ctx.Sub.Degree(local) > 0 {
				wn.active.Set(local)
				wn.pending++
			}
		}
		return wn, nil
	})
	if err != nil {
		return nil, err
	}

	res := &WCCResult{
		Label: gather(nodes[0].ctx.Part, nodes, func(w *wccNode) []graph.Vertex { return w.label }),
		Info:  info,
	}
	seen := make(map[graph.Vertex]struct{})
	for _, l := range res.Label {
		if _, ok := seen[l]; !ok {
			seen[l] = struct{}{}
			res.Components++
		}
	}
	return res, nil
}

func (w *wccNode) Active() int64 { return w.pending }

// Generate broadcasts every active vertex's label, fanning the active-bitmap
// scan over the node's workers in word-aligned shards (see comm.Fanout).
func (w *wccNode) Generate(round int, out *comm.Lane) error {
	err := comm.Fanout(out, int64(len(w.active.Words())), w.ctx.Workers, w, func(w *wccNode, out *comm.Lane, lo, hi int64) error {
		return scanBits(w.active.Words(), lo, hi, func(local int64) error {
			l := w.label[local]
			for _, u := range w.ctx.Sub.Neighbors(local) {
				if err := out.Send(w.ctx.Part.Owner(u), comm.Pair{u, l}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	w.active.Reset()
	return err
}

// Handle keeps the minimum label per vertex. The min-fold is
// order-independent, which is what keeps the result identical however
// batches arrive and split across shards.
func (w *wccNode) Handle(shard int, pairs []comm.Pair) {
	for _, p := range pairs {
		local, l := int64(p[0]), p[1]
		if l < w.label[local] {
			w.label[local] = l
			if !w.active.Get(local) {
				w.active.Set(local)
				w.activated[shard]++
			}
		}
	}
}

// pairFold declares WCC's exact fold: Handle keeps the minimum label, so
// the smallest of a vertex's labels leaves the state all of them would.
func (w *wccNode) pairFold() fold { return foldMin }

func (w *wccNode) EndRound(round int) error {
	w.pending = w.activated.drain()
	return nil
}

// wccCkpt is the checkpoint payload: the current labels and the active
// set entering the next round.
type wccCkpt struct {
	Label   []graph.Vertex `json:"label"`
	Active  []uint64       `json:"active"`
	Pending int64          `json:"pending"`
}

func (w *wccNode) CheckpointState() any {
	return &wccCkpt{
		Label:   append([]graph.Vertex(nil), w.label...),
		Active:  append([]uint64(nil), w.active.Words()...),
		Pending: w.pending,
	}
}

func (w *wccNode) RestoreState(data []byte) error {
	var c wccCkpt
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("wcc state: %w", err)
	}
	if len(c.Label) != len(w.label) {
		return fmt.Errorf("wcc state: %d labels, partition gives %d", len(c.Label), len(w.label))
	}
	copy(w.label, c.Label)
	w.active.LoadWords(c.Active)
	w.pending = c.Pending
	return nil
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
