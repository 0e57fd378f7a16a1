package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// smallCSR builds a tiny fixed graph used across tests:
//
//	0 - 1
//	|   |
//	2 - 3    4 (isolated)
func smallCSR(t *testing.T) *CSR {
	t.Helper()
	g, err := BuildCSR(5, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatalf("BuildCSR: %v", err)
	}
	return g
}

func TestCSRBasics(t *testing.T) {
	g := smallCSR(t)
	if g.N != 5 {
		t.Fatalf("N = %d, want 5", g.N)
	}
	if g.NumEdges() != 8 {
		t.Fatalf("NumEdges = %d, want 8 (4 undirected)", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !g.IsSymmetric() {
		t.Fatal("graph should be symmetric")
	}
	if d := g.Degree(0); d != 2 {
		t.Errorf("Degree(0) = %d, want 2", d)
	}
	if d := g.Degree(4); d != 0 {
		t.Errorf("Degree(4) = %d, want 0", d)
	}
	if !g.HasEdge(1, 3) || !g.HasEdge(3, 1) {
		t.Error("edge (1,3) missing in one direction")
	}
	if g.HasEdge(0, 3) {
		t.Error("unexpected edge (0,3)")
	}
	if g.HasEdge(4, 0) {
		t.Error("isolated vertex has an edge")
	}
}

func TestCSRNeighborsSorted(t *testing.T) {
	g := smallCSR(t)
	adj := g.Neighbors(3)
	if len(adj) != 2 || adj[0] != 1 || adj[1] != 2 {
		t.Fatalf("Neighbors(3) = %v, want [1 2]", adj)
	}
}

func TestCSRMaxDegree(t *testing.T) {
	g := smallCSR(t)
	d, v := g.MaxDegree()
	if d != 2 {
		t.Fatalf("MaxDegree = %d, want 2", d)
	}
	if g.Degree(v) != d {
		t.Fatalf("MaxDegree vertex %d has degree %d, want %d", v, g.Degree(v), d)
	}
}

func TestCSRMaxDegreeEmpty(t *testing.T) {
	g, err := BuildCSR(0, nil)
	if err != nil {
		t.Fatalf("BuildCSR: %v", err)
	}
	d, v := g.MaxDegree()
	if d != 0 || v != NoVertex {
		t.Fatalf("MaxDegree of empty graph = (%d, %d), want (0, NoVertex)", d, v)
	}
}

func TestCSREdgesRoundTrip(t *testing.T) {
	g := smallCSR(t)
	edges := g.Edges()
	if int64(len(edges)) != g.NumEdges() {
		t.Fatalf("Edges() returned %d edges, want %d", len(edges), g.NumEdges())
	}
	g2, err := BuildCSR(g.N, edges)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("rebuild changed edge count: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	for u := Vertex(0); int64(u) < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if !g2.HasEdge(u, v) {
				t.Fatalf("rebuild lost edge (%d, %d)", u, v)
			}
		}
	}
}

func TestValidateRejectsBrokenCSR(t *testing.T) {
	cases := []struct {
		name string
		g    CSR
	}{
		{"bad rowptr len", CSR{N: 2, RowPtr: []int64{0, 0}, Col: nil}},
		{"rowptr not starting at 0", CSR{N: 1, RowPtr: []int64{1, 1}, Col: []Vertex{}}},
		{"rowptr end mismatch", CSR{N: 1, RowPtr: []int64{0, 2}, Col: []Vertex{0}}},
		{"self loop", CSR{N: 2, RowPtr: []int64{0, 1, 1}, Col: []Vertex{0}}},
		{"out of range neighbour", CSR{N: 2, RowPtr: []int64{0, 1, 1}, Col: []Vertex{5}}},
		{"unsorted adjacency", CSR{N: 3, RowPtr: []int64{0, 2, 2, 2}, Col: []Vertex{2, 1}}},
		{"duplicate neighbour", CSR{N: 3, RowPtr: []int64{0, 2, 2, 2}, Col: []Vertex{1, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err == nil {
				t.Fatal("Validate accepted a broken CSR")
			}
		})
	}
}

func TestBuildCSRRejectsOutOfRange(t *testing.T) {
	if _, err := BuildCSR(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("BuildCSR accepted an out-of-range edge")
	}
	if _, err := BuildCSR(2, []Edge{{-1, 0}}); err == nil {
		t.Fatal("BuildCSR accepted a negative vertex")
	}
	if _, err := BuildCSR(-1, nil); err == nil {
		t.Fatal("BuildCSR accepted a negative vertex count")
	}
}

func TestBuildCSRDedupAndLoops(t *testing.T) {
	g, err := BuildCSR(3, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if err != nil {
		t.Fatalf("BuildCSR: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (one undirected edge)", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatal("self loop survived construction")
	}
}

// Property: building from an arbitrary edge list always yields a valid,
// symmetric, loop-free CSR.
func TestBuildCSRPropertyValid(t *testing.T) {
	f := func(raw []uint16, nSeed uint8) bool {
		n := int64(nSeed)%64 + 1
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				From: Vertex(int64(raw[i]) % n),
				To:   Vertex(int64(raw[i+1]) % n),
			})
		}
		g, err := BuildCSR(n, edges)
		if err != nil {
			return false
		}
		return g.Validate() == nil && g.IsSymmetric()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every non-loop input edge is present in the built CSR in both
// directions.
func TestBuildCSRPropertyComplete(t *testing.T) {
	f := func(raw []uint16, nSeed uint8) bool {
		n := int64(nSeed)%64 + 1
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				From: Vertex(int64(raw[i]) % n),
				To:   Vertex(int64(raw[i+1]) % n),
			})
		}
		g, err := BuildCSR(n, edges)
		if err != nil {
			return false
		}
		for _, e := range edges {
			if e.From == e.To {
				continue
			}
			if !g.HasEdge(e.From, e.To) || !g.HasEdge(e.To, e.From) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildCSRPinnedHash pins the scale-16 Kronecker CSR (RowPtr and Col)
// and its hub order over all vertices to digests taken before BuildCSR and
// SelectHubs switched sorting routines: a different sort may not move
// one entry of either.
func TestBuildCSRPinnedHash(t *testing.T) {
	g, err := BuildKronecker(KroneckerConfig{Scale: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, got, want string
	}{
		{"RowPtr", int64Digest(g.RowPtr), "1d11e132008f9e26db2bda1c17828687dd663b63de28ea7c021f5d1b928a19e7"},
		{"Col", int64Digest(g.Col), "7e4640af156a737455b92f8b038fee304aac9dec8b42c3361e09a470eadd4fca"},
		{"SelectHubs", int64Digest(SelectHubs(g, int(g.N))), "aa35dcf6a022bd843ba1e0fd96030e2f4838394d68d8b3b744bf834f760de8ed"},
	} {
		if c.got != c.want {
			t.Errorf("%s digest %s, want %s", c.name, c.got, c.want)
		}
	}
}

// int64Digest is the SHA-256 of xs as little-endian 64-bit words.
func int64Digest[T ~int64](xs []T) string {
	h := sha256.New()
	var w [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(w[:], uint64(x))
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
