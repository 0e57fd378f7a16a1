package graph

import (
	"math"
	"testing"
)

// TestHubSetTable: every hub round-trips through Slot and At, and every
// other vertex — inside the table, one past it, negative, or far outside
// — is (0, false), including on the empty set.
func TestHubSetTable(t *testing.T) {
	g, err := BuildKronecker(KroneckerConfig{Scale: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hubs := SelectHubs(g, 64)
	hs := NewHubSet(hubs)
	isHub := make(map[Vertex]bool, len(hubs))
	maxHub := Vertex(0)
	for slot, v := range hubs {
		isHub[v] = true
		maxHub = max(maxHub, v)
		if got, ok := hs.Slot(v); !ok || got != slot {
			t.Fatalf("Slot(%d) = (%d, %v), want (%d, true)", v, got, ok, slot)
		}
		if got := hs.At(slot); got != v {
			t.Fatalf("At(%d) = %d, want %d", slot, got, v)
		}
	}
	misses := []Vertex{-1, math.MinInt64, maxHub + 1, Vertex(g.N), math.MaxInt64}
	for v := Vertex(0); v <= maxHub; v++ {
		if !isHub[v] {
			misses = append(misses, v)
		}
	}
	for _, set := range []*HubSet{hs, NewHubSet(nil)} {
		for _, v := range misses {
			if slot, ok := set.Slot(v); ok || slot != 0 {
				t.Fatalf("Slot(%d) = (%d, %v) on %d hubs, want (0, false)", v, slot, ok, set.Len())
			}
		}
	}
}

var hubSlotSink int

// BenchmarkHubSlot is the per-edge hub test of the BFS generators: the
// neighbour stream of a scale-16 Kronecker graph against its 2^14 hubs
// (the bottom-up prefetch size), split into the edges that hit a hub and
// the ones that miss.
func BenchmarkHubSlot(b *testing.B) {
	g, err := BuildKronecker(KroneckerConfig{Scale: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	hs := NewHubSet(SelectHubs(g, 1<<14))
	var hit, miss []Vertex
	for _, v := range g.Col[:1<<20] {
		if _, ok := hs.Slot(v); ok {
			hit = append(hit, v)
		} else {
			miss = append(miss, v)
		}
	}
	for _, bc := range []struct {
		name string
		vs   []Vertex
	}{{"hit", hit}, {"miss", miss}} {
		b.Run(bc.name, func(b *testing.B) {
			sum, j := 0, 0
			for i := 0; i < b.N; i++ {
				slot, _ := hs.Slot(bc.vs[j])
				sum += slot
				if j++; j == len(bc.vs) {
					j = 0
				}
			}
			hubSlotSink = sum
		})
	}
}
