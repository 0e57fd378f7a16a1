package comm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkOrder runs the scatter on a recycled scratch and compares it with
// the oracle (sortByColumn: slices.SortFunc), on both key columns.
func checkOrder(t *testing.T, s *codecScratch, pairs []Pair) {
	t.Helper()
	for key := 0; key < 2; key++ {
		input := slices.Clone(pairs)
		s.order(input, key)
		if !slices.Equal(input, pairs) {
			t.Fatalf("key %d: order modified its input", key)
		}
		want := slices.Clone(pairs)
		sortByColumn(want, key)
		if !slices.Equal(s.ps, want) {
			t.Fatalf("key %d, %d pairs: order disagrees with slices.SortFunc\n got %v\nwant %v", key, len(pairs), s.ps, want)
		}
	}
}

// TestOrderPairsMatchesSortReference sweeps seeded batches over the
// properties the routine branches on — size either side of the insertion
// cutoff, span from one value to all of int64 (zero to six digit passes a
// column), ordered, other-ordered and shuffled input, heavy duplication —
// through one scratch, so stale buffers and histograms from the previous
// batch are part of the test.
func TestOrderPairsMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := new(codecScratch)
	checkOrder(t, s, nil)
	for family, pairs := range goldenFamilies() {
		t.Run(family, func(t *testing.T) { checkOrder(t, s, pairs) })
	}
	sizes := []int{1, 2, 3, insertionMax - 1, insertionMax, insertionMax + 1, 500, 3000}
	spans := []int64{1, 2, 200, 1 << radixBits, 1<<radixBits + 1, 1 << 17, 1 << 40, math.MaxInt64}
	for _, n := range sizes {
		for _, span := range spans {
			for _, lo := range []int64{0, -span / 2, math.MinInt64, math.MaxInt64 - span + 1} {
				pairs := randomPairs(rng, n, lo, span)
				checkOrder(t, s, pairs)
				sortByColumn(pairs, 0) // ordered on column 0: other-ordered for key 1
				checkOrder(t, s, pairs)
				// One column spanning everything, the other constant.
				for i := range pairs {
					pairs[i][1] = pairs[0][1]
				}
				rng.Shuffle(n, func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
				checkOrder(t, s, pairs)
			}
		}
	}
}

// FuzzOrderPairs holds the scatter to the comparison sort on arbitrary
// batches; the committed corpus carries the shapes of the sweep above.
func FuzzOrderPairs(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 16*(insertionMax+4))) // one value, above the cutoff
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkOrder(t, new(codecScratch), pairsFromBytes(raw))
	})
}
