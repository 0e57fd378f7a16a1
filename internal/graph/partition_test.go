package graph

import (
	"testing"
	"testing/quick"
)

func partitions(n int64, p int) []Partition {
	return []Partition{NewRoundRobin(n, p), NewBlock(n, p)}
}

// Property: every vertex is owned by exactly one node, Local/Global round-
// trip, and LocalCount sums to N.
func TestPartitionTotality(t *testing.T) {
	f := func(nSeed uint16, pSeed uint8) bool {
		n := int64(nSeed)%500 + 1
		p := int(pSeed)%16 + 1
		for _, part := range partitions(n, p) {
			var total int64
			counts := make([]int64, p)
			for v := Vertex(0); int64(v) < n; v++ {
				o := part.Owner(v)
				if o < 0 || o >= p {
					return false
				}
				local := part.Local(v)
				if part.Global(o, local) != v {
					return false
				}
				counts[o]++
			}
			for node := 0; node < p; node++ {
				if counts[node] != part.LocalCount(node) {
					return false
				}
				total += part.LocalCount(node)
			}
			if total != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinBalance(t *testing.T) {
	part := NewRoundRobin(1000, 7)
	min, max := int64(1<<62), int64(0)
	for node := 0; node < 7; node++ {
		c := part.LocalCount(node)
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Fatalf("round robin imbalance: min=%d max=%d", min, max)
	}
}

func TestBlockContiguous(t *testing.T) {
	part := NewBlock(10, 3)
	// ceil(10/3)=4: node 0 owns 0-3, node 1 owns 4-7, node 2 owns 8-9.
	wantOwner := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	for v, want := range wantOwner {
		if got := part.Owner(Vertex(v)); got != want {
			t.Errorf("Owner(%d) = %d, want %d", v, got, want)
		}
	}
	if c := part.LocalCount(2); c != 2 {
		t.Errorf("LocalCount(2) = %d, want 2", c)
	}
}

func TestPartitionPanicsOnBadArgs(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewRoundRobin p=0", func() { NewRoundRobin(10, 0) })
	mustPanic("NewBlock p=0", func() { NewBlock(10, 0) })
	mustPanic("NewRoundRobin n<0", func() { NewRoundRobin(-1, 2) })
	mustPanic("NewBlock n<0", func() { NewBlock(-1, 2) })
}

func TestExtractLocalCoversGraph(t *testing.T) {
	g, err := BuildKronecker(KroneckerConfig{Scale: 9, Seed: 11})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, part := range partitions(g.N, 4) {
		var edges int64
		for node := 0; node < part.Nodes(); node++ {
			sub := ExtractLocal(g, part, node)
			if sub.NumVertices() != part.LocalCount(node) {
				t.Fatalf("node %d vertex count %d, want %d", node, sub.NumVertices(), part.LocalCount(node))
			}
			edges += sub.NumEdges()
			// Each local adjacency must match the global one.
			for local := int64(0); local < sub.NumVertices(); local++ {
				v := part.Global(node, local)
				want := g.Neighbors(v)
				got := sub.Neighbors(local)
				if len(want) != len(got) {
					t.Fatalf("node %d vertex %d: %d neighbours, want %d", node, v, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("node %d vertex %d neighbour %d: %d vs %d", node, v, i, got[i], want[i])
					}
				}
				if sub.Degree(local) != int64(len(want)) {
					t.Fatalf("degree mismatch for vertex %d", v)
				}
			}
		}
		if edges != g.NumEdges() {
			t.Fatalf("partitioned edges %d, want %d", edges, g.NumEdges())
		}
	}
}

func TestSelectHubs(t *testing.T) {
	g := func() *CSR {
		// Star graph: vertex 0 connected to everyone.
		edges := make([]Edge, 0, 9)
		for v := Vertex(1); v < 10; v++ {
			edges = append(edges, Edge{0, v})
		}
		g, err := BuildCSR(10, edges)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return g
	}()
	hubs := SelectHubs(g, 3)
	if len(hubs) != 3 {
		t.Fatalf("got %d hubs, want 3", len(hubs))
	}
	if hubs[0] != 0 {
		t.Fatalf("top hub = %d, want 0 (the star centre)", hubs[0])
	}
	// Ties (degree-1 leaves) must break deterministically by ID.
	if hubs[1] != 1 || hubs[2] != 2 {
		t.Fatalf("tie break wrong: %v", hubs)
	}

	if got := SelectHubs(g, 0); got != nil {
		t.Fatalf("SelectHubs(0) = %v, want nil", got)
	}
	if got := SelectHubs(g, 100); int64(len(got)) != g.N {
		t.Fatalf("SelectHubs(100) = %d hubs, want N=%d", len(got), g.N)
	}
}

func TestHubSet(t *testing.T) {
	hs := NewHubSet([]Vertex{42, 7, 99}, 100)
	if hs.Len() != 3 {
		t.Fatalf("Len = %d, want 3", hs.Len())
	}
	if !hs.Members().Get(7) {
		t.Fatal("7 should be a member")
	}
	if hs.Members().Get(8) {
		t.Fatal("8 should not be a member")
	}
	if hs.At(2) != 99 {
		t.Fatalf("At(2) = %d, want 99", hs.At(2))
	}
}
