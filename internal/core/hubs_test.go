package core

import (
	"testing"

	"swbfs/internal/graph"
)

// TestHubBudgets: a zero budget is the per-node default times the node
// count, capped at a sixteenth of the vertices and never below one; an
// explicit top-down budget above the bottom-up one is clamped down to it;
// without hub prefetch there are no hubs.
func TestHubBudgets(t *testing.T) {
	for _, tc := range []struct {
		perNode, nodes int
		n              int64
		want           int
	}{
		{DefaultHubsTopDown, 2, 1 << 20, 2 * DefaultHubsTopDown},
		{DefaultHubsBottomUp, 8, 1 << 20, 1 << 16},
		{DefaultHubsBottomUp, 1, 1 << 10, 1 << 6},
		{DefaultHubsTopDown, 8, 8, 1},
	} {
		if got := scaledHubCount(tc.perNode, tc.nodes, tc.n); got != tc.want {
			t.Errorf("scaledHubCount(%d, %d, %d) = %d, want %d", tc.perNode, tc.nodes, tc.n, got, tc.want)
		}
	}

	g := kron(t, 10, 5)
	for _, tc := range []struct {
		name           string
		td, bu         int
		wantTD, wantBU int
	}{
		{"defaults", 0, 0, 64, 64},
		{"explicit", 32, 256, 32, 256},
		{"td above bu", 300, 100, 100, 100},
		{"td above default bu", 300, 0, 64, 64},
	} {
		cfg := DefaultConfig(8)
		cfg.HubsTopDown, cfg.HubsBottomUp = tc.td, tc.bu
		h := newHubs(cfg, g, graph.NewRoundRobin(g.N, cfg.Nodes))
		if h.topDown != tc.wantTD || h.set.Len() != tc.wantBU {
			t.Errorf("%s: budgets %d/%d, want %d/%d", tc.name, h.topDown, h.set.Len(), tc.wantTD, tc.wantBU)
		}
	}
	cfg := DefaultConfig(8)
	cfg.HubPrefetch = false
	if h := newHubs(cfg, g, graph.NewRoundRobin(g.N, cfg.Nodes)); h != nil {
		t.Fatalf("hub prefetch off selected %d hubs", h.set.Len())
	}
}

// TestHubSlotsAndOwnLists: slot i holds the i-th hub by degree; under every
// partition each slot is in exactly one node's own list — its owner's, at
// its local index — and each list is in ascending slot order. Visiting
// every slot marks in seen exactly the top-down budget's hubs.
func TestHubSlotsAndOwnLists(t *testing.T) {
	g := kron(t, 10, 5)
	for _, p := range []PartitionStrategy{PartitionRoundRobin, PartitionBlock, PartitionDegreeBalanced} {
		cfg := DefaultConfig(8)
		cfg.SuperNodeSize, cfg.Partition = 4, p
		cfg.HubsTopDown, cfg.HubsBottomUp = 40, 200
		r, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		h := r.hubs
		for s := 1; s < h.set.Len(); s++ {
			if g.Degree(h.set.At(s-1)) < g.Degree(h.set.At(s)) {
				t.Fatalf("%s: slot %d has degree %d, below slot %d's %d", p, s-1, g.Degree(h.set.At(s-1)), s, g.Degree(h.set.At(s)))
			}
		}
		lists := make([]int, h.set.Len())
		for node, own := range h.own {
			for i, o := range own {
				if i > 0 && own[i-1].slot >= o.slot {
					t.Fatalf("%s: node %d lists slot %d after %d", p, node, o.slot, own[i-1].slot)
				}
				v := h.set.At(o.slot)
				if r.part.Owner(v) != node || r.part.Local(v) != o.local {
					t.Fatalf("%s: node %d lists slot %d (vertex %d) at local %d; its owner is %d, local %d",
						p, node, o.slot, v, o.local, r.part.Owner(v), r.part.Local(v))
				}
				lists[o.slot]++
			}
		}
		for s, n := range lists {
			if n != 1 {
				t.Fatalf("%s: slot %d is in %d own lists, want 1", p, s, n)
			}
		}

		h.reset()
		for s := range h.set.Len() {
			h.visit(s)
		}
		if got := h.seen.Count(); got != int64(h.topDown) {
			t.Fatalf("%s: visiting every slot marked %d hubs seen, want the top-down budget %d", p, got, h.topDown)
		}
		for s := range h.topDown {
			if !h.seen.Get(int64(h.set.At(s))) {
				t.Fatalf("%s: top-down slot %d visited but not seen", p, s)
			}
		}
	}
}
