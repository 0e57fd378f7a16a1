package comm

import (
	"sync"
	"sync/atomic"
)

// StageCapPairs is the hand-off granularity of staged sends: one transport
// quantum at the default batch size, so a chunk is big enough to amortize
// the endpoint lock but small enough to bound staging memory at
// lanes x queue depth x 128 KB per node.
const StageCapPairs = 4096

// Stage is a sender-private staging buffer: outgoing pairs in emission
// order plus the run-length encoding of their destinations, ready for
// SendMany. The zero value is empty; capacity survives Reset.
type Stage struct {
	Runs  []DstRun
	Pairs []Pair
}

// Add appends one pair for dst, extending the last run when it has the
// same destination.
func (s *Stage) Add(dst int, p Pair) {
	if n := len(s.Runs); n > 0 && s.Runs[n-1].Dst == dst {
		s.Runs[n-1].N++
	} else {
		s.Runs = append(s.Runs, DstRun{Dst: dst, N: 1})
	}
	s.Pairs = append(s.Pairs, p)
}

// Full reports whether the stage has reached the hand-off size.
func (s *Stage) Full() bool { return len(s.Pairs) >= StageCapPairs }

// Reset empties the stage, keeping its capacity.
func (s *Stage) Reset() {
	s.Runs = s.Runs[:0]
	s.Pairs = s.Pairs[:0]
}

// Flush sends the staged stream on ch and empties the stage; the endpoint
// copies the pairs into its own buffers, so the stage is reusable on
// return.
func (s *Stage) Flush(ep Endpoint, ch Channel) error {
	if len(s.Pairs) == 0 {
		return nil
	}
	err := ep.SendMany(ch, s.Runs, s.Pairs)
	s.Reset()
	return err
}

// stagePool recycles stages across lanes, levels, nodes and runs. Stages
// are born at full capacity: with round-robin ownership runs are short, so
// both slices fill together.
var stagePool = sync.Pool{New: func() any {
	return &Stage{
		Runs:  make([]DstRun, 0, StageCapPairs),
		Pairs: make([]Pair, 0, StageCapPairs),
	}
}}

func putStage(st *Stage) {
	st.Reset()
	stagePool.Put(st)
}

// Lane is one sender's staged stream onto one endpoint channel: a module's
// send path, or one CPE lane of it under Fanout. Pairs stage in emission
// order and reach the endpoint in StageCapPairs chunks, so a transport
// error surfaces at the next chunk or at Flush, not at the offending pair.
// Hot loops call Add and Full, which the embedded Stage provides, and Ship
// when Full reports true; Send does the three in one call.
type Lane struct {
	*Stage
	ep Endpoint
	ch Channel
	// out and stop are set on Fanout's worker lanes only: where full chunks
	// go instead of the endpoint, and whether sending them failed.
	out  chan<- *Stage
	stop *atomic.Bool
	// Sent counts the pairs the lane has passed to the endpoint since Open.
	Sent int64
}

// Open points the lane at ep's channel ch and empties it, taking a stage
// from the pool unless the lane holds one; the stage is kept until Release.
func (l *Lane) Open(ep Endpoint, ch Channel) {
	if l.Stage == nil {
		l.Stage = stagePool.Get().(*Stage)
	}
	l.Reset()
	l.ep, l.ch, l.Sent = ep, ch, 0
}

// Release returns the lane's stage to the pool, dropping anything staged,
// and leaves the lane zero.
func (l *Lane) Release() {
	if l.Stage != nil {
		putStage(l.Stage)
	}
	*l = Lane{}
}

// Send stages one pair for dst and ships the stage once it is full. A
// non-nil error means the run is tearing down: return it promptly.
func (l *Lane) Send(dst int, p Pair) error {
	l.Add(dst, p)
	if l.Full() {
		return l.Ship()
	}
	return nil
}

// Ship passes the staged chunk on: to the endpoint, or from a fanned-out
// lane to Fanout's merger, which leaves the lane a fresh stage. A non-nil
// error means the send failed, here or for a peer lane: stop and return it.
func (l *Lane) Ship() error {
	if l.out == nil {
		return l.Flush()
	}
	if l.stop.Load() {
		return ErrAborted
	}
	l.out <- l.Stage
	l.Stage = stagePool.Get().(*Stage)
	return nil
}

// Flush sends whatever the lane has staged.
func (l *Lane) Flush() error { return l.send(l.Stage) }

func (l *Lane) send(st *Stage) error {
	l.Sent += int64(len(st.Pairs))
	return st.Flush(l.ep, l.ch)
}

// Fanout runs scan over the index range [0, n) and sends what it stages
// through l in exactly the order one call scan(s, l, 0, n) would — which is
// what it does when k <= 1: inline, on the caller's goroutine, with no
// allocation. Otherwise k goroutines, the lanes of the module's CPE
// cluster, scan the contiguous shards of ForEachShard into private lanes
// and hand full chunks over bounded channels to the caller's goroutine.
// That flushes what l already holds, then sends the chunks shard by shard,
// so every destination receives the serial pair sequence — the same batch
// boundaries, fault coordinates and modelled bytes at every width — while
// live staging stays O(k x chunk). scan must touch only state private to
// its shard and return only the errors Ship or Send gave it; s is handed
// through so that a method expression needs no per-call closure. The first
// send error stops every lane at its next chunk and is returned.
func Fanout[S any](l *Lane, n int64, k int, s S, scan func(s S, l *Lane, lo, hi int64) error) error {
	if int64(k) > n {
		k = int(n)
	}
	if k <= 1 {
		return scan(s, l, 0, n)
	}
	var stop atomic.Bool
	outs := make([]chan *Stage, k)
	for i := range outs {
		// Depth 2: a lane fills its next chunk while one waits and one is
		// being sent, and then blocks — the memory bound.
		outs[i] = make(chan *Stage, 2)
		w := &Lane{Stage: stagePool.Get().(*Stage), out: outs[i], stop: &stop}
		lo, hi := shardRange(n, k, i)
		go func(s S, w *Lane, lo, hi int64) {
			_ = scan(s, w, lo, hi) // its only error is the stop, echoed back
			w.out <- w.Stage
			close(w.out)
		}(s, w, lo, hi)
	}
	err := l.Flush() // the caller's own staged pairs come first
	for _, out := range outs {
		for st := range out {
			if err == nil {
				err = l.send(st)
			}
			if err != nil {
				stop.Store(true)
			}
			putStage(st)
		}
	}
	return err
}

// ForEachShard splits [0, n) into k contiguous ranges and runs
// body(shard, lo, hi) for each, concurrently, one goroutine per shard —
// inline when k <= 1. The ranges are the ones Fanout scans. body must touch
// only shard-private state; callers fold per-shard results in shard order
// when order matters.
func ForEachShard(n int64, k int, body func(shard int, lo, hi int64)) {
	if int64(k) > n {
		k = int(n)
	}
	if k <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		lo, hi := shardRange(n, k, i)
		wg.Add(1)
		go func(i int, lo, hi int64) {
			defer wg.Done()
			body(i, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
}

// shardRange is shard i of [0, n) split k ways (0 < k <= n): never empty,
// sizes differing by at most one.
func shardRange(n int64, k, i int) (lo, hi int64) {
	return n * int64(i) / int64(k), n * int64(i+1) / int64(k)
}
