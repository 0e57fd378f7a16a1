package algos

import (
	"sync"

	"swbfs/internal/comm"
	"swbfs/internal/graph"
)

// combining is implemented by a RoundAlgo whose pairs have an exact fold.
// Run detects it and gives each node a combiner: the round's pairs are
// folded per destination vertex at the sender, and one pair per touched
// vertex goes on the wire.
type combining interface {
	pairFold() comm.Fold
}

// combiner is one node's sender-side accumulator. It stands in for the
// endpoint behind the round lane — SendMany folds each chunk the lane hands
// it, on the node goroutine after comm.Fanout's shard-order merge — and
// drain ships what it holds. It keeps one slab per destination node the node
// has contacted, so it is never O(N) unless the node contacts every node.
// The slabs are kept across rounds, empty at every round boundary, and go
// back to slabPool, cleared, when the run ends, however it ends.
type combiner struct {
	comm.Endpoint // the node's endpoint; a lane reaches only SendMany
	part          *graph.RoundRobinPartition
	fold          comm.Fold
	slabs         []*slab // by destination node; nil until contacted
}

// slab is the accumulator of one destination node: a value per local
// vertex, and a bitmap of the ones this round touched, which says whether
// the value is live.
type slab struct {
	vals    []graph.Vertex
	touched []uint64
}

// slabPool recycles slabs across runs. A pooled slab's touched words are
// all zero.
var slabPool sync.Pool

func newCombiner(ep comm.Endpoint, part *graph.RoundRobinPartition, f comm.Fold) *combiner {
	return &combiner{Endpoint: ep, part: part, fold: f, slabs: make([]*slab, part.Nodes())}
}

// slab returns destination dst's slab, taking one from the pool on first
// contact.
func (c *combiner) slab(dst int) *slab {
	if s := c.slabs[dst]; s != nil {
		return s
	}
	n := c.part.LocalCount(dst)
	s, _ := slabPool.Get().(*slab)
	if s == nil || int64(cap(s.vals)) < n {
		s = &slab{vals: make([]graph.Vertex, n), touched: make([]uint64, (n+63)/64)}
	}
	s.vals, s.touched = s.vals[:n], s.touched[:(n+63)/64]
	c.slabs[dst] = s
	return s
}

// SendMany folds a staged stream into the accumulator instead of sending
// it: the first pair for a vertex sets its value, every later one folds in.
func (c *combiner) SendMany(_ comm.Channel, runs []comm.DstRun, pairs []comm.Pair) error {
	for _, r := range runs {
		s := c.slab(r.Dst)
		for _, p := range pairs[:r.N] {
			l := c.part.Local(p[0])
			w, bit := l>>6, uint64(1)<<(l&63)
			if s.touched[w]&bit == 0 {
				s.touched[w] |= bit
				s.vals[l] = p[1]
			} else {
				s.vals[l] = c.fold.Apply(s.vals[l], p[1])
			}
		}
		pairs = pairs[r.N:]
	}
	return nil
}

// drain sends one pair per touched vertex through l, in ascending
// destination node and then ascending local index, and empties the
// accumulator. After an error the accumulator may hold pairs still: the run
// is tearing down, and release clears them.
func (c *combiner) drain(l *comm.Lane) error {
	for dst, s := range c.slabs {
		if s == nil {
			continue
		}
		err := scanBits(s.touched, 0, int64(len(s.touched)), func(local int64) error {
			return l.Send(dst, comm.Pair{c.part.Global(dst, local), s.vals[local]})
		})
		if err != nil {
			return err
		}
		clear(s.touched)
	}
	return nil
}

// release clears every slab and returns it to the pool.
func (c *combiner) release() {
	for dst, s := range c.slabs {
		if s != nil {
			clear(s.touched)
			slabPool.Put(s)
			c.slabs[dst] = nil
		}
	}
}
