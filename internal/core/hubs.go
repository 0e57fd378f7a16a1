package core

import (
	"math/bits"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/graph"
)

// hubs is the degree-aware hub prefetch: every level, each node receives the
// frontier bits of the top-degree vertices, so a generator settles an edge
// into a hub with a local bit test instead of a message. Slot i holds the
// i-th hub by degree; slots below topDown form the top-down budget, all of
// them the bottom-up one. A nil *hubs means prefetch is off.
type hubs struct {
	set     *graph.HubSet
	topDown int
	own     [][]ownHub // own[node]: the node's hubs, in ascending slot order

	// The replicated state, allocated by the first run: visited is the slot
	// bitmap of hubs discovered so far (checkpointed); frontier (hubs in the
	// current frontier) and seen (top-down-budget hubs visited) are
	// vertex-indexed for the generators. Node 0 writes them in exchange; the
	// level loop's rendezvous before Work publishes them.
	visited, frontier, seen *graph.Bitmap
	words                   []*graph.Bitmap // words[node]: its contribution scratch
}

// ownHub is one hub of a node: its local index there and its slot.
type ownHub struct {
	local int64
	slot  int
}

// newHubs selects g's hubs under cfg's budgets (nil without prefetch): a
// zero budget is the per-node default scaled to the machine, and the
// top-down budget is clamped to the bottom-up one.
func newHubs(cfg Config, g *graph.CSR, part graph.Partition) *hubs {
	if !cfg.HubPrefetch {
		return nil
	}
	td, bu := cfg.HubsTopDown, cfg.HubsBottomUp
	if td == 0 {
		td = scaledHubCount(DefaultHubsTopDown, cfg.Nodes, g.N)
	}
	if bu == 0 {
		bu = scaledHubCount(DefaultHubsBottomUp, cfg.Nodes, g.N)
	}
	h := &hubs{set: graph.NewHubSet(graph.SelectHubs(g, bu), g.N), topDown: min(td, bu), own: make([][]ownHub, cfg.Nodes)}
	for slot := range h.set.Len() {
		v := h.set.At(slot)
		h.own[part.Owner(v)] = append(h.own[part.Owner(v)], ownHub{local: part.Local(v), slot: slot})
	}
	return h
}

// scaledHubCount turns the paper's per-node hub budget into a total, capped
// so hubs stay a small minority of the graph on scaled-down instances.
func scaledHubCount(perNode, nodes int, n int64) int {
	return int(max(min(int64(perNode)*int64(nodes), n/16), 1))
}

// reset empties the replicated state for a run, allocating it on the first.
func (h *hubs) reset() {
	if h == nil {
		return
	}
	if h.visited == nil {
		slots, n := int64(h.set.Len()), h.set.Members().Len()
		h.visited, h.frontier, h.seen = graph.NewBitmap(slots), graph.NewBitmap(n), graph.NewBitmap(n)
		for range h.own {
			h.words = append(h.words, graph.NewBitmap(slots))
		}
	}
	for _, bm := range []*graph.Bitmap{h.visited, h.frontier, h.seen} {
		bm.Reset()
	}
}

// visit marks slot discovered: in visited, and in seen for a top-down slot.
func (h *hubs) visit(slot int) {
	h.visited.Set(int64(slot))
	if slot < h.topDown {
		h.seen.Set(int64(h.set.At(slot)))
	}
}

// state declares the hub_visited checkpoint field; loading it rebuilds seen
// (the next exchange rebuilds frontier).
func (h *hubs) state() ckpt.State {
	if h == nil {
		return nil
	}
	return ckpt.State{ckpt.Words("hub_visited", h.visited).Then(func() {
		for slot := h.visited.NextSet(0); slot >= 0; slot = h.visited.NextSet(slot + 1) {
			h.visit(int(slot))
		}
	})}
}

// exchange allgathers the slots of each node's own hubs in its frontier
// curr — nil, the one-byte empty flag, from a node with none — and node 0
// rebuilds frontier from the result and visits every gathered slot.
func (h *hubs) exchange(net *comm.Network, node int, curr *graph.Bitmap) error {
	if h == nil {
		return nil
	}
	var words []uint64
	bm := h.words[node]
	bm.Reset()
	for _, o := range h.own[node] {
		if curr.Get(o.local) {
			bm.Set(int64(o.slot))
			words = bm.Words()
		}
	}
	result, err := net.AllgatherOr(words, true)
	if err != nil {
		return err
	}
	if net.Aborted() {
		return ErrAborted
	}
	if node == 0 {
		h.frontier.Reset()
		for wi, w := range result {
			for ; w != 0; w &= w - 1 {
				slot := wi<<6 + bits.TrailingZeros64(w)
				h.frontier.Set(int64(h.set.At(slot)))
				h.visit(slot)
			}
		}
	}
	return nil
}

// bitmaps returns what the generators test, nil without prefetch: hub
// membership and frontier (bottom-up), and seen (top-down).
func (h *hubs) bitmaps() (members, frontier, seen *graph.Bitmap) {
	if h == nil {
		return nil, nil, nil
	}
	return h.set.Members(), h.frontier, h.seen
}
