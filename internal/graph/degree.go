package graph

import (
	"cmp"
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
	slices.SortFunc(all, func(a, b dv) int {
		if c := cmp.Compare(b.d, a.d); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	hubs := make([]Vertex, k)
	for i := 0; i < k; i++ {
		hubs[i] = all[i].v
	}
	return hubs
}

// HubSet is a hub list and its membership bitmap: slot i holds the i-th
// hub, and the generators' per-edge hub test is one bit of a vertex-indexed
// bitmap (N/8 bytes).
type HubSet struct {
	list    []Vertex
	members *Bitmap
}

// NewHubSet indexes the given hub vertices, which must lie in [0, n).
func NewHubSet(hubs []Vertex, n int64) *HubSet {
	h := &HubSet{list: append([]Vertex(nil), hubs...), members: NewBitmap(n)}
	for _, v := range hubs {
		h.members.Set(int64(v))
	}
	return h
}

// Len returns the number of hubs.
func (h *HubSet) Len() int { return len(h.list) }

// At returns the hub vertex in the given slot.
func (h *HubSet) At(slot int) Vertex { return h.list[slot] }

// Members returns the membership bitmap over [0, n): bit v is set iff v is
// a hub. Callers must not modify it.
func (h *HubSet) Members() *Bitmap { return h.members }
