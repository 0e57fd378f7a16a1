package graph

import "testing"

// TestHubSetTable: every hub round-trips through At and is a member, and
// every other vertex of the graph is not, including on the empty set; the
// membership bitmap spans exactly the graph.
func TestHubSetTable(t *testing.T) {
	g, err := BuildKronecker(KroneckerConfig{Scale: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hubs := SelectHubs(g, 64)
	hs := NewHubSet(hubs, g.N)
	isHub := make(map[Vertex]bool, len(hubs))
	for slot, v := range hubs {
		isHub[v] = true
		if got := hs.At(slot); got != v {
			t.Fatalf("At(%d) = %d, want %d", slot, got, v)
		}
	}
	for _, set := range []*HubSet{hs, NewHubSet(nil, g.N)} {
		m := set.Members()
		if m.Len() != g.N {
			t.Fatalf("membership bitmap spans %d vertices, want %d", m.Len(), g.N)
		}
		for v := Vertex(0); int64(v) < g.N; v++ {
			if want := isHub[v] && set.Len() > 0; m.Get(int64(v)) != want {
				t.Fatalf("vertex %d: member %v on %d hubs, want %v", v, m.Get(int64(v)), set.Len(), want)
			}
		}
	}
}
