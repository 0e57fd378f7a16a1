package graph

import (
	"bytes"
	"testing"
)

// FuzzBuildCSR feeds arbitrary byte strings as edge lists: construction
// must never panic, and every accepted graph must satisfy the CSR
// invariants.
func FuzzBuildCSR(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{5, 5, 5, 5}, uint8(6))
	f.Fuzz(func(t *testing.T, raw []byte, nSeed uint8) {
		n := int64(nSeed)%200 + 1
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				From: Vertex(int64(raw[i]) % n),
				To:   Vertex(int64(raw[i+1]) % n),
			})
		}
		g, err := BuildCSR(n, edges)
		if err != nil {
			t.Fatalf("in-range edges rejected: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("built CSR invalid: %v", err)
		}
		if !g.IsSymmetric() {
			t.Fatal("built CSR asymmetric")
		}
	})
}

// FuzzReadEdgesText: the parser must never panic and must round-trip
// whatever it accepts.
func FuzzReadEdgesText(f *testing.F) {
	f.Add("1 2\n3 4\n")
	f.Add("# comment\n\n10\t20\n")
	f.Add("x y\n")
	f.Add("9223372036854775807 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		edges, err := ReadEdgesText(bytes.NewReader([]byte(input)))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := WriteEdgesText(&buf, edges); err != nil {
			t.Fatal(err)
		}
		again, err := ReadEdgesText(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(again) != len(edges) {
			t.Fatalf("round trip length %d, want %d", len(again), len(edges))
		}
	})
}

// FuzzBitmapWordScan checks the bitmap's word-stepping scan operations
// (NextSet, ForEach, Count, Empty, Or) against a plain bool-slice
// reference model, including the word-boundary tail the BFS generators'
// sharded scans depend on.
func FuzzBitmapWordScan(f *testing.F) {
	f.Add([]byte{0, 63, 64, 65, 127}, []byte{1, 2}, uint16(128))
	f.Add([]byte{}, []byte{}, uint16(1))
	f.Add([]byte{255}, []byte{255}, uint16(256))
	f.Fuzz(func(t *testing.T, setA, setB []byte, nSeed uint16) {
		n := int64(nSeed)%1024 + 1
		a := NewBitmap(n)
		b := NewBitmap(n)
		ref := make([]bool, n)
		for _, raw := range setA {
			a.Set(int64(raw) % n)
			ref[int64(raw)%n] = true
		}
		refB := make([]bool, n)
		for _, raw := range setB {
			b.Set(int64(raw) % n)
			refB[int64(raw)%n] = true
		}

		check := func(bm *Bitmap, model []bool) {
			t.Helper()
			var want []int64
			for i, set := range model {
				if set {
					want = append(want, int64(i))
				}
			}
			var gotNext []int64
			for i := bm.NextSet(0); i >= 0; i = bm.NextSet(i + 1) {
				gotNext = append(gotNext, i)
			}
			var gotEach []int64
			bm.ForEach(func(i int64) { gotEach = append(gotEach, i) })
			if len(gotNext) != len(want) || len(gotEach) != len(want) {
				t.Fatalf("NextSet found %d, ForEach %d, model %d", len(gotNext), len(gotEach), len(want))
			}
			for i := range want {
				if gotNext[i] != want[i] || gotEach[i] != want[i] {
					t.Fatalf("bit %d: NextSet %d, ForEach %d, model %d", i, gotNext[i], gotEach[i], want[i])
				}
			}
			if bm.Count() != int64(len(want)) {
				t.Fatalf("Count = %d, model %d", bm.Count(), len(want))
			}
			if bm.Empty() != (len(want) == 0) {
				t.Fatalf("Empty = %v with %d bits set", bm.Empty(), len(want))
			}
		}
		check(a, ref)
		check(b, refB)

		a.Or(b)
		for i := range ref {
			ref[i] = ref[i] || refB[i]
		}
		check(a, ref)
	})
}
