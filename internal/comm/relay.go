package comm

import (
	"fmt"
	"sync"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/obs"
)

// GroupShape arranges P nodes as an N x M matrix (Figure 7): N groups
// ("rows", mapped onto super nodes) of M nodes each. Node id = row*M + col.
// The relay node of a (src, dst) message sits in the same row as dst and
// the same column as src: relay = Row(dst)*M + Col(src).
type GroupShape struct {
	N int // groups (rows)
	M int // nodes per group (columns)
}

// NewGroupShape validates an N x M arrangement for nodes = N*M.
func NewGroupShape(nodes, m int) (GroupShape, error) {
	if m <= 0 || nodes <= 0 {
		return GroupShape{}, fmt.Errorf("comm: invalid group shape: %d nodes, M=%d", nodes, m)
	}
	if nodes%m != 0 {
		return GroupShape{}, fmt.Errorf("comm: %d nodes not divisible into groups of %d", nodes, m)
	}
	return GroupShape{N: nodes / m, M: m}, nil
}

// DefaultGroupShape picks the group size for a node count: the super node
// size when it divides the node count (the paper maps "each communication
// group into the same super node"), otherwise the largest divisor not
// exceeding it.
func DefaultGroupShape(nodes, superSize int) GroupShape {
	if superSize <= 0 {
		superSize = 256
	}
	if nodes <= 0 {
		return GroupShape{N: 1, M: 1}
	}
	best := 1
	for m := 1; m <= superSize && m <= nodes; m++ {
		if nodes%m == 0 {
			best = m
		}
	}
	return GroupShape{N: nodes / best, M: best}
}

// Nodes returns N*M.
func (s GroupShape) Nodes() int { return s.N * s.M }

// Row and Col decompose a node id.
func (s GroupShape) Row(node int) int { return node / s.M }
func (s GroupShape) Col(node int) int { return node % s.M }

// Relay returns the relay node of a (src, dst) message.
func (s GroupShape) Relay(src, dst int) int {
	return s.Row(dst)*s.M + s.Col(src)
}

// MessagesPerNode returns the distinct peers a node messages under the
// scheme: N stage-one relays (its column) plus M stage-two destinations
// (its row), minus itself counted twice — the paper's (N + M - 1), down
// from N*M for direct messaging.
func (s GroupShape) MessagesPerNode() int { return s.N + s.M - 1 }

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

func (g *groupStage) reset() {
	g.runs = g.runs[:0]
	g.runHead, g.runOff = 0, 0
	g.fifo.buf = g.fifo.buf[:0]
	g.fifo.head = 0
	g.total = 0
}

func (g *groupStage) push(dst int, ps []Pair) {
	if n := len(g.runs); n > g.runHead && g.runs[n-1].Dst == dst {
		g.runs[n-1].N += len(ps)
	} else {
		g.runs = append(g.runs, DstRun{Dst: dst, N: len(ps)})
	}
	g.fifo.push(ps)
	g.total += len(ps)
}

// drain consumes the oldest n buffered pairs and groups them into inner
// batches in ascending destination order, preserving each destination's
// arrival order. Pair slices come from the pool; the eventual consumer (the
// relay) recycles them.
func (g *groupStage) drain(n int, src, level int, ch Channel) []Batch {
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
	inner := make([]Batch, 0, dsts)
	for col, c := range g.counts {
		if c > 0 {
			inner = append(inner, Batch{
				Kind: KindData, Channel: ch, Src: src, Dst: g.base + col, Level: level, Pairs: g.bufs[col],
			})
			g.counts[col], g.bufs[col] = 0, nil
		}
	}
	return inner
}

// relaySend is the stage-one staging state: one groupStage per (channel,
// destination group), guarded by a mutex because generator and handler
// modules send concurrently.
type relaySend struct {
	mu     sync.Mutex
	groups [numChannels][]groupStage
}

func (s *relaySend) start(shape GroupShape) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ch := range s.groups {
		if s.groups[ch] == nil {
			s.groups[ch] = make([]groupStage, shape.N)
			for i := range s.groups[ch] {
				s.groups[ch][i] = newGroupStage(i*shape.M, shape.M)
			}
		}
		for i := range s.groups[ch] {
			s.groups[ch][i].reset()
		}
	}
}

// RelayEndpoint implements the group-based message batching transport.
// Stage one: all pairs for a destination group are batched into one
// envelope and sent to the relay node of that group in the sender's
// column. Stage two: the relay shuffles envelopes per final destination
// (the Forward/Backward Relay modules of Figure 10) and forwards batched
// messages within its group.
//
// Both stages drain in fixed quanta (Network.QuantumPairs), so batch
// counts — and, for content-independent sizing, wire bytes — depend only
// on per-group / per-destination pair totals, not on how senders chunked
// their calls or on relay arrival interleaving. Stage-two batches
// therefore ship NoCodec: their *content* does depend on envelope arrival
// order, and a payload codec's byte count is content-sensitive. The one
// residual nondeterminism is the per-destination composition of a
// mid-level stage-one envelope when two modules race on the same channel;
// BFS never does that (generators and handler replies use different
// channels), so modelled traffic stays reproducible. (With a payload
// codec on the forward channel, bottom-up reply batches are still
// arrival-ordered — see the determinism note in docs/ARCHITECTURE.md.)
type RelayEndpoint struct {
	net   *Network
	node  int
	shape GroupShape
	send  relaySend

	level int
	open  [numChannels]bool

	// Destination-side termination: one end marker from each relay of the
	// node's row.
	ends [numChannels]int

	// Relay-side state: per-destination stage-two FIFOs plus the count of
	// stage-one end markers from the node's column. Only the Recv
	// goroutine touches these.
	relayFIFO [numChannels][]pairFIFO
	relayEnds [numChannels]int

	// relayedBytes counts pair bytes this node shuffled as a relay during
	// the current level — the input volume of its Forward/Backward Relay
	// modules (read by the same goroutine that runs Recv).
	// totalRelayedBytes accumulates across levels for whole-run metrics.
	relayedBytes      int64
	totalRelayedBytes int64

	// flows, when non-nil, records each transport hop (stage-one envelope
	// to the relay, stage-two batch to the handler) so the Chrome-trace
	// export can draw cross-node flow arrows. The recorder aggregates per
	// (level, channel, stage, src, dst) and is safe for concurrent use.
	flows *obs.SpanRecorder

	recv receiver
}

// Reset implements Endpoint. The stage-one groups and the relay FIFOs are
// emptied by StartLevel; the flow sink belongs to the machine.
func (e *RelayEndpoint) Reset() {
	e.level, e.open = 0, [numChannels]bool{}
	e.ends, e.relayEnds = [numChannels]int{}, [numChannels]int{}
	e.relayedBytes, e.totalRelayedBytes = 0, 0
	e.recv = receiver{}
	for ch := range e.relayFIFO {
		for i := range e.relayFIFO[ch] {
			e.relayFIFO[ch][i].trim()
		}
		for i := range e.send.groups[ch] {
			g := &e.send.groups[ch][i]
			g.fifo.trim()
			if cap(g.runs) > fifoRetainPairs {
				g.runs = nil
			}
		}
	}
}

// SetFlowSink attaches (or detaches, with nil) the flow-link recorder.
// Call before the endpoint carries traffic.
func (e *RelayEndpoint) SetFlowSink(sr *obs.SpanRecorder) { e.flows = sr }

// RelayedBytes reports the pair bytes relayed during the current level.
// Call it from the handler goroutine after the level completes.
func (e *RelayEndpoint) RelayedBytes() int64 { return e.relayedBytes }

// TotalRelayedBytes reports the pair bytes relayed across all levels of
// the run so far. Call it after the run's module goroutines have joined.
func (e *RelayEndpoint) TotalRelayedBytes() int64 { return e.totalRelayedBytes }

// RestoreRelayedBytes sets the cross-level relayed-byte accumulator. The
// checkpoint/restart path calls it on a fresh endpoint before the node's
// module goroutines start, so whole-run relay metrics of a resumed run
// match an uninterrupted one.
func (e *RelayEndpoint) RestoreRelayedBytes(total int64) { e.totalRelayedBytes = total }

// NewRelayEndpoint creates the rank for `node` under the given shape.
func NewRelayEndpoint(net *Network, node int, shape GroupShape) (*RelayEndpoint, error) {
	if shape.Nodes() != net.Nodes() {
		return nil, fmt.Errorf("comm: group shape %dx%d does not cover %d nodes",
			shape.N, shape.M, net.Nodes())
	}
	return &RelayEndpoint{net: net, node: node, shape: shape}, nil
}

func (e *RelayEndpoint) Node() int    { return e.node }
func (e *RelayEndpoint) Mode() string { return "relay" }

// StartLevel implements Endpoint.
func (e *RelayEndpoint) StartLevel(level int, channels ...Channel) {
	e.level = level
	e.send.start(e.shape)
	for ch := range e.ends {
		e.ends[ch] = 0
		e.relayEnds[ch] = 0
		e.open[ch] = false
		if e.relayFIFO[ch] == nil {
			e.relayFIFO[ch] = make([]pairFIFO, e.net.Nodes())
		}
		for i := range e.relayFIFO[ch] {
			e.relayFIFO[ch][i].buf = e.relayFIFO[ch][i].buf[:0]
			e.relayFIFO[ch][i].head = 0
		}
	}
	for _, ch := range channels {
		e.open[ch] = true
	}
	e.relayedBytes = 0
}

// SendMany implements Endpoint: buffer the staged runs per destination
// *group* and ship an envelope to the group's relay for every completed
// quantum. Envelopes are assembled under the lock but delivered outside it.
func (e *RelayEndpoint) SendMany(ch Channel, runs []DstRun, pairs []Pair) error {
	q := e.net.QuantumPairs()
	type envelope struct {
		group int
		inner []Batch
	}
	var envs []envelope
	off := 0
	e.send.mu.Lock()
	for _, run := range runs {
		group := e.shape.Row(run.Dst)
		g := &e.send.groups[ch][group]
		g.push(run.Dst, pairs[off:off+run.N])
		off += run.N
		for g.total >= q {
			envs = append(envs, envelope{group, g.drain(q, e.node, e.level, ch)})
		}
	}
	e.send.mu.Unlock()
	for _, env := range envs {
		if err := e.deliverEnvelope(ch, env.group, env.inner); err != nil {
			return err
		}
	}
	return nil
}

// deliverEnvelope ships one stage-one envelope to the group's relay.
func (e *RelayEndpoint) deliverEnvelope(ch Channel, group int, inner []Batch) error {
	if len(inner) == 0 {
		return nil
	}
	relay := e.shape.Relay(e.node, group*e.shape.M)
	if e.flows != nil {
		var payload int64
		for i := range inner {
			payload += int64(len(inner[i].Pairs)) * PairBytes
		}
		e.flows.Flow(e.level, ch.String(), obs.FlowStageOne, e.node, relay, payload)
	}
	return e.net.deliver(Batch{
		Kind: KindRelayData, Channel: ch, Src: e.node, Dst: relay, Level: e.level, Inner: inner,
	})
}

// CloseChannel implements Endpoint: flush every group's residual envelope
// in ascending group order, then tell every relay in the node's column
// that this source is done.
func (e *RelayEndpoint) CloseChannel(ch Channel) error {
	for group := 0; group < e.shape.N; group++ {
		e.send.mu.Lock()
		g := &e.send.groups[ch][group]
		var inner []Batch
		if g.total > 0 {
			inner = g.drain(g.total, e.node, e.level, ch)
		}
		e.send.mu.Unlock()
		if err := e.deliverEnvelope(ch, group, inner); err != nil {
			return err
		}
	}
	col := e.shape.Col(e.node)
	for row := 0; row < e.shape.N; row++ {
		relay := row*e.shape.M + col
		err := e.net.deliver(Batch{
			Kind: KindRelayEnd, Channel: ch, Src: e.node, Dst: relay, Level: e.level,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Recv implements Endpoint. Besides delivering this node's own traffic, it
// executes the node's relay duties: stage-one envelopes are shuffled into
// per-destination FIFOs and forwarded in quanta (the Relay modules); the
// final flush happens when every source in the column has signalled done.
func (e *RelayEndpoint) Recv() Event {
	for {
		b, err := e.recv.next(e.net, e.node, e.level)
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
			if e.ends[b.Channel] == e.shape.M {
				e.open[b.Channel] = false
				return Event{Type: EvChannelClosed, Channel: b.Channel}
			}

		case KindRelayData:
			if d := e.net.ChaosDelay(chaos.KindDelayRelay, e.node, e.level); d > 0 {
				time.Sleep(d) // scheduled relay stall: host time only
			}
			ch := b.Channel
			q := e.net.QuantumPairs()
			for _, in := range b.Inner {
				if in.Dst < 0 || e.shape.Row(in.Dst) != e.shape.Row(e.node) {
					return Event{Type: EvError, Err: protocolError(e.node, &b,
						fmt.Sprintf("envelope for node %d, outside the relay's row", in.Dst))}
				}
				f := &e.relayFIFO[ch][in.Dst]
				f.push(in.Pairs)
				e.relayedBytes += int64(len(in.Pairs)) * PairBytes
				e.totalRelayedBytes += int64(len(in.Pairs)) * PairBytes
				PutPairs(in.Pairs)
				for f.n() >= q {
					if err := e.relayFlush(ch, in.Dst, f.take(q)); err != nil {
						return Event{Type: EvError, Err: err}
					}
				}
			}

		case KindRelayEnd:
			ch := b.Channel
			e.relayEnds[ch]++
			if e.relayEnds[ch] == e.shape.N {
				// Every source in this column is done: flush residuals in
				// ascending destination order and mark the channel done for
				// the whole row.
				row := e.shape.Row(e.node)
				for col := 0; col < e.shape.M; col++ {
					dst := row*e.shape.M + col
					f := &e.relayFIFO[ch][dst]
					if n := f.n(); n > 0 {
						if err := e.relayFlush(ch, dst, f.take(n)); err != nil {
							return Event{Type: EvError, Err: err}
						}
					}
				}
				for col := 0; col < e.shape.M; col++ {
					err := e.net.deliver(Batch{
						Kind: KindEnd, Channel: ch, Src: e.node, Dst: row*e.shape.M + col, Level: e.level,
					})
					if err != nil {
						return Event{Type: EvError, Err: err}
					}
				}
			}

		default:
			return Event{Type: EvError, Err: protocolError(e.node, &b, "unknown wire kind")}
		}
	}
}

// relayFlush ships one stage-two batch. Stage-two payloads are NoCodec:
// their composition depends on the order envelopes reached the relay, so
// re-encoding them would make modelled wire bytes scheduling-dependent;
// the byte win of the codecs comes from stage one (and the pairs were
// already normalized by the stage-one decode).
func (e *RelayEndpoint) relayFlush(ch Channel, dst int, pairs []Pair) error {
	if e.flows != nil {
		e.flows.Flow(e.level, ch.String(), obs.FlowStageTwo, e.node, dst, int64(len(pairs))*PairBytes)
	}
	return e.net.deliver(Batch{
		Kind: KindData, Channel: ch, Src: e.node, Dst: dst, Level: e.level, Pairs: pairs, NoCodec: true,
	})
}
