package comm

import (
	"math/bits"

	"swbfs/internal/graph"
)

// Fold is an exact reduction of the pairs bound for one destination vertex:
// associative, commutative, and such that the receiver's handling of the
// one folded pair leaves the state its handling of every pair would, in any
// order. A kernel declares the fold its pairs obey; the zero Fold is none.
type Fold uint8

const (
	// FoldMin keeps the smallest value: BFS parents (the handler keeps the
	// smallest candidate), WCC labels, SSSP distances.
	FoldMin Fold = iota + 1
	// FoldSum adds as integers: PageRank's fixed-point contributions.
	FoldSum
)

// Apply folds v into acc.
func (f Fold) Apply(acc, v graph.Vertex) graph.Vertex {
	if f == FoldSum {
		return acc + v
	}
	return min(acc, v)
}

// batchFold is the scratch of the endpoint's batch fold: an open-addressing
// table keyed on a pair's column 1, whose slots hold 1 + the position of
// that key's pair in the folded prefix (0: empty). It grows to the largest
// batch folded — a quantum at most — and is cleared per batch, so it holds
// nothing between batches and never O(N) state.
type batchFold struct {
	slots []int32
}

// fold folds pairs in place to one pair per column-1 value, in order of
// first occurrence, column 0 the fold of every pair it replaces, and
// returns the folded prefix. One pass over the batch: no sort.
func (s *batchFold) fold(f Fold, pairs []Pair) []Pair {
	if len(pairs) < 2 {
		return pairs
	}
	shift := bits.Len(uint(2*len(pairs) - 1)) // a table of 2n or more slots
	size := 1 << shift
	if cap(s.slots) < size {
		s.slots = make([]int32, size)
	}
	slots := s.slots[:size]
	clear(slots)
	mask := uint64(size - 1)
	n := 0
	for _, p := range pairs {
		// Fibonacci hashing: the top bits of the product spread the
		// round-robin owners' strided keys over the whole table.
		for h := uint64(p[1]) * 0x9e3779b97f4a7c15 >> (64 - shift); ; h = (h + 1) & mask {
			at := slots[h]
			if at == 0 {
				slots[h] = int32(n + 1)
				pairs[n] = p
				n++
				break
			}
			if q := &pairs[at-1]; q[1] == p[1] {
				q[0] = f.Apply(q[0], p[0])
				break
			}
		}
	}
	return pairs[:n]
}
