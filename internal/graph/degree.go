package graph

import (
	"slices"
	"sort"
)

// DegreeCensus summarizes the degree distribution of a graph. Kronecker
// graphs are power-law: most vertices have tiny degree while a few hubs are
// enormous — the imbalance the paper's hub-prefetch optimization targets.
type DegreeCensus struct {
	Max      int64
	Min      int64
	Mean     float64
	Median   int64
	Isolated int64 // vertices with degree 0
	// Histogram[k] counts vertices whose degree has bit length k
	// (i.e. degree in [2^(k-1), 2^k) for k >= 1, degree 0 for k == 0).
	Histogram []int64
}

// Census computes the degree census of g.
func Census(g *CSR) DegreeCensus {
	c := DegreeCensus{Min: -1}
	if g.N == 0 {
		c.Min = 0
		return c
	}
	degrees := make([]int64, g.N)
	var sum int64
	for v := int64(0); v < g.N; v++ {
		d := g.Degree(Vertex(v))
		degrees[v] = d
		sum += d
		if d > c.Max {
			c.Max = d
		}
		if c.Min == -1 || d < c.Min {
			c.Min = d
		}
		if d == 0 {
			c.Isolated++
		}
		bits := bitLen(d)
		for int64(len(c.Histogram)) <= int64(bits) {
			c.Histogram = append(c.Histogram, 0)
		}
		c.Histogram[bits]++
	}
	c.Mean = float64(sum) / float64(g.N)
	sort.Slice(degrees, func(i, j int) bool { return degrees[i] < degrees[j] })
	c.Median = degrees[len(degrees)/2]
	return c
}

func bitLen(x int64) int {
	n := 0
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}

// SelectHubs returns the k highest-degree vertices of g, in descending degree
// order (ties broken by ascending vertex ID for determinism). These are the
// "hub vertices" whose frontier bits every node prefetches (§5: 2^12 per node
// for Top-Down, 2^14 for Bottom-Up, compressed as a bitmap).
func SelectHubs(g *CSR, k int) []Vertex {
	if k <= 0 || g.N == 0 {
		return nil
	}
	if int64(k) > g.N {
		k = int(g.N)
	}
	type dv struct {
		d int64
		v Vertex
	}
	all := make([]dv, g.N)
	for v := int64(0); v < g.N; v++ {
		all[v] = dv{d: g.Degree(Vertex(v)), v: Vertex(v)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d > all[j].d
		}
		return all[i].v < all[j].v
	})
	hubs := make([]Vertex, k)
	for i := 0; i < k; i++ {
		hubs[i] = all[i].v
	}
	return hubs
}

// HubSet is a membership index over a hub list, mapping each hub vertex to a
// dense slot usable as a bitmap position. The index is a per-vertex table
// (4 B per vertex up to the largest hub), so the per-edge hub test of the
// generators is one bounds check and one load.
type HubSet struct {
	slots []int32 // slot+1 of each vertex, 0 = not a hub
	list  []Vertex
}

// NewHubSet indexes the given hub vertices, which must be non-negative.
func NewHubSet(hubs []Vertex) *HubSet {
	h := &HubSet{list: append([]Vertex(nil), hubs...)}
	if len(hubs) > 0 {
		h.slots = make([]int32, slices.Max(hubs)+1)
	}
	for i, v := range hubs {
		h.slots[v] = int32(i + 1)
	}
	return h
}

// Len returns the number of hubs.
func (h *HubSet) Len() int { return len(h.list) }

// Slot returns the dense slot of v and whether v is a hub; any vertex
// outside the table, negative ones included, is not.
func (h *HubSet) Slot(v Vertex) (int, bool) {
	if uint64(v) >= uint64(len(h.slots)) || h.slots[v] == 0 {
		return 0, false
	}
	return int(h.slots[v]) - 1, true
}

// At returns the hub vertex in the given slot.
func (h *HubSet) At(slot int) Vertex { return h.list[slot] }
