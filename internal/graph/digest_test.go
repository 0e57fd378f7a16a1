package graph

import "testing"

// TestDigest pins the digest of a path graph to the SHA-256 of its words
// (the same bytes hashed by any other implementation of the layout), and
// checks that relabelling the graph or weighting it changes the digest.
func TestDigest(t *testing.T) {
	g, err := BuildCSR(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	const want = "3dbf27fc2ac1e50f7090f3192a8549784a3f103a6b18f32a75debc3ff3d75d29"
	if got := Digest(g, nil); got != want {
		t.Fatalf("Digest = %s, want %s", got, want)
	}
	w := &Weights{W: []int64{1, 2, 2, 3, 3, 4}}
	const wantWeighted = "4ca26424366bd900ebc58a010a56c86fd4ca37015010f92f682872bdac5a616d"
	if got := Digest(g, w); got != wantWeighted {
		t.Fatalf("weighted Digest = %s, want %s", got, wantWeighted)
	}

	// The same counts, other edges: 1-2-3-0.
	h, err := BuildCSR(4, []Edge{{1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if h.N != g.N || h.NumEdges() != g.NumEdges() || Digest(h, nil) == want {
		t.Fatal("a relabelled graph of the same counts digests like the original")
	}
}
