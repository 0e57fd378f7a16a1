package comm

import (
	"fmt"
	"slices"
	"sync"
)

// Endpoint is one simulated node's MPI rank. Send-side methods (SendMany,
// CloseChannel) and the recv side (Recv) may be driven by different module
// goroutines, mirroring the paper's dedicated send and receive MPEs (M0
// and M1 in Figure 4).
type Endpoint interface {
	// Node returns the rank.
	Node() int
	// StartLevel opens a BFS level with the given active channels.
	StartLevel(level int, channels ...Channel)
	// SendMany queues a staged stream: runs[i] says the next runs[i].N
	// entries of pairs go to runs[i].Dst. The transport batches and
	// flushes in quanta, and the flush discipline is chunk-invariant: the
	// batches depend on the per-destination pair sequence alone, not on
	// how callers cut it into streams — so senders stage (see Stage) and
	// pay one lock acquisition per stream, never one per edge. An error
	// means the simulated machine failed (e.g. MPI connection memory
	// exhaustion).
	SendMany(ch Channel, runs []DstRun, pairs []Pair) error
	// CloseChannel flushes pending sends on the channel and emits the
	// end-of-channel markers.
	CloseChannel(ch Channel) error
	// Recv blocks for the next event: a data batch, a channel-closed
	// notification (once per open channel), or a transport error.
	Recv() Event
	// Mode names the transport for reports ("direct" or "relay").
	Mode() string
	// Reset clears what a cleanly finished run left behind, for the next
	// run of a Reset network; send and relay buffers keep their capacity.
	Reset()
}

// DstRun is one run of a staged send stream: N consecutive pairs bound
// for the same destination node.
type DstRun struct {
	Dst int
	N   int
}

// pairFIFO is a per-destination send buffer: pairs append at the tail and
// drain from the head in batch quanta. The backing array survives across
// levels and, on a machine the next run recycles, across runs, so
// steady-state traversal allocates nothing on the send side.
type pairFIFO struct {
	buf  []Pair
	head int
}

func (f *pairFIFO) n() int { return len(f.buf) - f.head }

func (f *pairFIFO) push(ps []Pair) { f.buf = append(f.buf, ps...) }

// peek views the oldest n pairs without consuming them. The view aliases
// the buffer: copy it out before the next push or advance.
func (f *pairFIFO) peek(n int) []Pair { return f.buf[f.head : f.head+n] }

// advance consumes the oldest n pairs.
func (f *pairFIFO) advance(n int) {
	f.head += n
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head > 4096 && f.head*2 >= len(f.buf) {
		// Compact once the dead prefix dominates, keeping pushes amortized
		// O(1) without unbounded slack.
		m := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:m]
		f.head = 0
	}
}

// fifoRetainPairs bounds the buffer a FIFO keeps from one run to the next
// (16 KB). Below it lies the small-message regime, where regrowing
// thousands of little buffers per run is the cost that shows; a buffer that
// grew past it carries bulk traffic, which amortizes its own allocation and,
// kept, would only be live heap — and as much again in GC headroom.
const fifoRetainPairs = 1024

// trim releases a buffer too large to keep across runs.
func (f *pairFIFO) trim() {
	if cap(f.buf) > fifoRetainPairs {
		f.buf = nil
	}
}

// take removes the oldest n pairs into a pooled slice that the receiver
// of the resulting batch will own (and may recycle with PutPairs).
func (f *pairFIFO) take(n int) []Pair {
	out := GetPairs(n)
	copy(out, f.peek(n))
	f.advance(n)
	return out
}

// groupStage buffers one destination group's outgoing pairs in arrival
// order. The runs queue remembers the destination of each contiguous run,
// so the quantum drain can rebuild per-destination inner batches without
// per-pair bookkeeping; the FIFO holds the pairs themselves.
type groupStage struct {
	runs    []DstRun
	runHead int // index of the oldest unconsumed run
	runOff  int // pairs of runs[runHead] already consumed
	fifo    pairFIFO
	total   int

	// Drain scratch, one slot per group member indexed by dst - base:
	// round-robin vertex ownership makes nearly every run length 1, so the
	// drain touches these once per pair. Both are all-zero between drains.
	base   int
	counts []int
	bufs   [][]Pair
}

// newGroupStage sizes the drain scratch for the m-node group whose first
// member is node base.
func newGroupStage(base, m int) groupStage {
	return groupStage{base: base, counts: make([]int, m), bufs: make([][]Pair, m)}
}

// single reports a one-member group: every pair is for node base, so the
// stage keeps no run queue and drains straight from its FIFO.
func (g *groupStage) single() bool { return len(g.counts) == 1 }

func (g *groupStage) reset() {
	g.runs = g.runs[:0]
	g.runHead, g.runOff = 0, 0
	g.fifo.buf = g.fifo.buf[:0]
	g.fifo.head = 0
	g.total = 0
}

// trim releases buffers too large to keep across runs.
func (g *groupStage) trim() {
	g.fifo.trim()
	if cap(g.runs) > fifoRetainPairs {
		g.runs = nil
	}
}

func (g *groupStage) push(dst int, ps []Pair) {
	g.fifo.push(ps)
	g.total += len(ps)
	if g.single() {
		return
	}
	if n := len(g.runs); n > g.runHead && g.runs[n-1].Dst == dst {
		g.runs[n-1].N += len(ps)
	} else {
		g.runs = append(g.runs, DstRun{Dst: dst, N: len(ps)})
	}
}

// drain consumes the oldest n buffered pairs and appends them to out as
// inner batches in ascending destination order, preserving each
// destination's arrival order. Pair slices come from the pool; the eventual
// consumer recycles them.
func (g *groupStage) drain(out []Batch, n int, src, level int, ch Channel) []Batch {
	if g.single() {
		g.total -= n
		return append(out, Batch{
			Kind: KindData, Channel: ch, Src: src, Dst: g.base, Level: level, Pairs: g.fifo.take(n),
		})
	}
	dsts := 0
	rh, ro, left := g.runHead, g.runOff, n
	for left > 0 {
		r := g.runs[rh]
		take := min(r.N-ro, left)
		if g.counts[r.Dst-g.base] == 0 {
			dsts++
		}
		g.counts[r.Dst-g.base] += take
		left -= take
		ro += take
		if ro == r.N {
			rh++
			ro = 0
		}
	}
	for col, c := range g.counts {
		if c > 0 {
			g.bufs[col] = GetPairs(c)[:0]
		}
	}
	for oldest := g.fifo.peek(n); len(oldest) > 0; {
		r := &g.runs[g.runHead]
		take := min(r.N-g.runOff, len(oldest))
		g.bufs[r.Dst-g.base] = append(g.bufs[r.Dst-g.base], oldest[:take]...)
		oldest = oldest[take:]
		g.runOff += take
		if g.runOff == r.N {
			g.runHead++
			g.runOff = 0
		}
	}
	g.fifo.advance(n)
	g.total -= n
	if g.runHead == len(g.runs) {
		g.runs = g.runs[:0]
		g.runHead = 0
	} else if g.runHead > 64 && g.runHead*2 >= len(g.runs) {
		m := copy(g.runs, g.runs[g.runHead:])
		g.runs = g.runs[:m]
		g.runHead = 0
	}
	out = slices.Grow(out, dsts)
	for col, c := range g.counts {
		if c > 0 {
			out = append(out, Batch{
				Kind: KindData, Channel: ch, Src: src, Dst: g.base + col, Level: level, Pairs: g.bufs[col],
			})
			g.counts[col], g.bufs[col] = 0, nil
		}
	}
	return out
}

// route is a transport's routing step: all the endpoint core leaves to the
// transport it serves.
type route interface {
	// seal turns the inner batches of one drained quantum, out[at:], into
	// what goes on the wire.
	seal(ch Channel, out []Batch, at int) []Batch
	// ship delivers one sealed batch.
	ship(b Batch) error
	// end sends the node's end-of-channel markers.
	end(ch Channel) error
	// handle consumes a batch of a kind the core does not know, or says
	// why it breaks the protocol. It takes the batch by value: a pointer
	// through the interface would move every received batch to the heap.
	handle(b Batch) error
}

// endpointCore is the rank machinery both transports embed: the level and
// its open channels, the send staging, and the receive half that hands data
// to the caller and counts End markers. Destinations fall into groups of
// `members` consecutive nodes, each staged in one groupStage whose quanta
// drain in fixed size (Network.QuantumPairs). Draining by fixed quantum —
// rather than "flush whatever is buffered once it crosses the threshold" —
// makes batch boundaries a pure function of the per-group pair sequence,
// independent of how senders chunked their SendMany calls. That invariance
// is what lets the intra-node worker pools promise modelled traffic
// bit-identical to the serial path.
type endpointCore struct {
	net   *Network
	node  int
	route route
	// members is the size of a destination group; closeAfter is the End
	// markers that close a channel.
	members, closeAfter int
	// groupOf maps a destination to its group: a table, because an integer
	// division per staged run is what the send loop would spend its time on.
	groupOf []int

	level int
	open  [numChannels]bool
	ends  [numChannels]int

	// seenDups tracks chaos-injected duplicate deliveries (by DupID) so
	// the second copy is discarded before any processing or accounting.
	// Lazily allocated: a fault-free run never sees a duplicate.
	seenDups map[int64]bool

	// mu guards the staging table: generator and handler modules send
	// concurrently.
	mu     sync.Mutex
	groups [numChannels][]groupStage
	// residual is CloseChannel's scratch; each channel has one closer.
	residual [numChannels][]Batch
}

func newEndpointCore(net *Network, node int, r route, members, closeAfter int) endpointCore {
	groupOf := make([]int, net.Nodes())
	for dst := range groupOf {
		groupOf[dst] = dst / members
	}
	return endpointCore{net: net, node: node, route: r, members: members, closeAfter: closeAfter, groupOf: groupOf}
}

func (e *endpointCore) Node() int { return e.node }

// StartLevel implements Endpoint.
func (e *endpointCore) StartLevel(level int, channels ...Channel) {
	e.level = level
	e.mu.Lock()
	for ch := range e.groups {
		if e.groups[ch] == nil {
			e.groups[ch] = make([]groupStage, e.net.Nodes()/e.members)
			for i := range e.groups[ch] {
				e.groups[ch][i] = newGroupStage(i*e.members, e.members)
			}
		}
		for i := range e.groups[ch] {
			e.groups[ch][i].reset()
		}
	}
	e.mu.Unlock()
	e.ends, e.open = [numChannels]int{}, [numChannels]bool{}
	for _, ch := range channels {
		e.open[ch] = true
	}
}

// Reset implements Endpoint. The staging table is emptied by StartLevel.
func (e *endpointCore) Reset() {
	e.level, e.ends, e.open, e.seenDups = 0, [numChannels]int{}, [numChannels]bool{}, nil
	for ch := range e.groups {
		for i := range e.groups[ch] {
			e.groups[ch][i].trim()
		}
	}
}

// SendMany implements Endpoint: stage the runs by destination group and
// ship every completed quantum. Quanta are drained and sealed under the
// lock and shipped outside it, so concurrent senders only contend on the
// append.
func (e *endpointCore) SendMany(ch Channel, runs []DstRun, pairs []Pair) error {
	q := e.net.QuantumPairs()
	var full []Batch
	off := 0
	e.mu.Lock()
	for _, run := range runs {
		g := &e.groups[ch][e.groupOf[run.Dst]]
		g.push(run.Dst, pairs[off:off+run.N])
		off += run.N
		for g.total >= q {
			full = e.drain(full, ch, g, q)
		}
	}
	e.mu.Unlock()
	return e.shipAll(full)
}

// CloseChannel implements Endpoint: flush every group's residual in
// ascending group order, then send the End markers.
func (e *endpointCore) CloseChannel(ch Channel) error {
	e.mu.Lock()
	residual := e.residual[ch][:0]
	for i := range e.groups[ch] {
		if g := &e.groups[ch][i]; g.total > 0 {
			residual = e.drain(residual, ch, g, g.total)
		}
	}
	e.residual[ch] = residual
	e.mu.Unlock()
	if err := e.shipAll(residual); err != nil {
		return err
	}
	clear(residual) // the payloads are their receivers' now
	return e.route.end(ch)
}

// drain appends the oldest n pairs of g to out as one quantum, sealed for
// the wire.
func (e *endpointCore) drain(out []Batch, ch Channel, g *groupStage, n int) []Batch {
	at := len(out)
	return e.route.seal(ch, g.drain(out, n, e.node, e.level, ch), at)
}

func (e *endpointCore) shipAll(sealed []Batch) error {
	for i := range sealed {
		if err := e.route.ship(sealed[i]); err != nil {
			return err
		}
	}
	return nil
}

// Recv implements Endpoint: data goes to the caller, End markers close
// their channel, and every other kind is the transport's to handle.
func (e *endpointCore) Recv() Event {
	for {
		b, err := e.next()
		if err != nil {
			return Event{Type: EvError, Err: err}
		}
		switch b.Kind {
		case KindData:
			return Event{Type: EvData, Channel: b.Channel, Batch: b}
		case KindEnd:
			if !e.open[b.Channel] {
				return Event{Type: EvError, Err: protocolError(e.node, &b, "end marker on a closed channel")}
			}
			e.ends[b.Channel]++
			if e.ends[b.Channel] == e.closeAfter {
				e.open[b.Channel] = false
				return Event{Type: EvChannelClosed, Channel: b.Channel}
			}
		default:
			if err := e.route.handle(b); err != nil {
				return Event{Type: EvError, Err: err}
			}
		}
	}
}

// next pops the node's next live batch of the level: chaos duplicates are
// discarded, the batch is recorded, decoded and checked. An error is what
// Recv must report instead.
func (e *endpointCore) next() (Batch, error) {
	for {
		b, ok := e.net.inboxes[e.node].Pop()
		if !ok {
			return b, fmt.Errorf("comm: node %d inbox closed mid-level: %w", e.node, ErrAborted)
		}
		if b.DupID != 0 {
			if e.seenDups[b.DupID] {
				// Chaos duplicate: the first copy was already delivered.
				if err := e.net.flightDupDrop(e.node, &b); err != nil {
					return b, protocolError(e.node, &b, err.Error())
				}
				continue
			}
			if e.seenDups == nil {
				e.seenDups = make(map[int64]bool)
			}
			e.seenDups[b.DupID] = true
		}
		// Recorded before the decode and the checks, so the dump of a run a
		// hostile batch aborted shows that batch arriving.
		if err := e.net.flightRecv(e.node, &b); err != nil {
			return b, protocolError(e.node, &b, err.Error())
		}
		if err := e.net.decodeForWire(&b); err != nil {
			return b, protocolError(e.node, &b, err.Error())
		}
		if b.Level != e.level {
			return b, protocolError(e.node, &b, fmt.Sprintf("arrived during level %d", e.level))
		}
		if b.Channel >= numChannels {
			return b, protocolError(e.node, &b, "unknown "+b.Channel.String())
		}
		return b, nil
	}
}

// DirectEndpoint implements all-pairs messaging: every destination is its
// own group, every batch goes straight to its destination, and every node
// exchanges end-of-channel markers with every other node — Theta(P^2)
// termination messages machine-wide, the baseline behaviour of Figure 11's
// "Direct" lines.
type DirectEndpoint struct {
	endpointCore
}

// NewDirectEndpoint creates the rank for `node`.
func NewDirectEndpoint(net *Network, node int) *DirectEndpoint {
	e := &DirectEndpoint{}
	e.endpointCore = newEndpointCore(net, node, e, 1, net.Nodes())
	return e
}

func (e *DirectEndpoint) Mode() string { return "direct" }

// seal ships a quantum as it drained: one batch for one destination.
func (e *DirectEndpoint) seal(_ Channel, out []Batch, _ int) []Batch { return out }

func (e *DirectEndpoint) ship(b Batch) error { return e.net.deliver(b) }

// end sends one End marker to every node, including self (a free
// loopback).
func (e *DirectEndpoint) end(ch Channel) error {
	for dst := 0; dst < e.net.Nodes(); dst++ {
		err := e.net.deliver(Batch{
			Kind: KindEnd, Channel: ch, Src: e.node, Dst: dst, Level: e.level,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *DirectEndpoint) handle(b Batch) error {
	return protocolError(e.node, &b, "not a direct-transport kind")
}
