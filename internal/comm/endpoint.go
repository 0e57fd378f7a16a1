package comm

import (
	"fmt"
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

func init() {
	// numChannels is the array bound below; keep them in sync.
	if numChannels != 2 {
		panic("comm: channel count changed; update endpoint state arrays")
	}
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

// sendState is the shared send-side batching state of the direct
// transport: one FIFO per (channel, destination), drained in quanta of
// exactly Network.QuantumPairs pairs. Draining by fixed quantum — rather
// than "flush whatever is buffered once it crosses the threshold" — makes
// batch boundaries a pure function of the per-destination pair sequence,
// independent of how senders chunked their SendMany calls. That
// invariance is what lets the intra-node worker pools promise modelled
// traffic bit-identical to the serial path.
type sendState struct {
	mu    sync.Mutex
	fifos [numChannels][]pairFIFO
	// residual is CloseChannel's scratch; each channel has one closer.
	residual [numChannels][]Batch
}

func (s *sendState) start(nodes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ch := range s.fifos {
		if s.fifos[ch] == nil {
			s.fifos[ch] = make([]pairFIFO, nodes)
		}
		for i := range s.fifos[ch] {
			s.fifos[ch][i].buf = s.fifos[ch][i].buf[:0]
			s.fifos[ch][i].head = 0
		}
	}
}

// DirectEndpoint implements all-pairs messaging: every batch goes straight
// to its destination, and every node exchanges end-of-channel markers with
// every other node — Theta(P^2) termination messages machine-wide, the
// baseline behaviour of Figure 11's "Direct" lines.
type DirectEndpoint struct {
	net  *Network
	node int
	send sendState

	level int
	ends  [numChannels]int
	open  [numChannels]bool

	recv receiver
}

// NewDirectEndpoint creates the rank for `node`.
func NewDirectEndpoint(net *Network, node int) *DirectEndpoint {
	return &DirectEndpoint{net: net, node: node}
}

func (e *DirectEndpoint) Node() int    { return e.node }
func (e *DirectEndpoint) Mode() string { return "direct" }

// Reset implements Endpoint. The send FIFOs are emptied by StartLevel.
func (e *DirectEndpoint) Reset() {
	e.level, e.ends, e.open = 0, [numChannels]int{}, [numChannels]bool{}
	e.recv = receiver{}
	for ch := range e.send.fifos {
		for i := range e.send.fifos[ch] {
			e.send.fifos[ch][i].trim()
		}
	}
}

// receiver is the receive-side prologue both transports share: pop the
// node's inbox, discard chaos duplicates, decode, record, check the level.
type receiver struct {
	// seenDups tracks chaos-injected duplicate deliveries (by DupID) so
	// the second copy is discarded before any processing or accounting.
	// Lazily allocated: a fault-free run never sees a duplicate.
	seenDups map[int64]bool
}

// next returns the node's next live batch of the level; an error is what
// Recv must report instead.
func (r *receiver) next(net *Network, node, level int) (Batch, error) {
	for {
		b, ok := net.inboxes[node].Pop()
		if !ok {
			return b, fmt.Errorf("comm: node %d inbox closed mid-level: %w", node, ErrAborted)
		}
		if b.DupID != 0 {
			if r.seenDups[b.DupID] {
				// Chaos duplicate: the first copy was already delivered.
				if err := net.flightDupDrop(node, &b); err != nil {
					return b, protocolError(node, &b, err.Error())
				}
				continue
			}
			if r.seenDups == nil {
				r.seenDups = make(map[int64]bool)
			}
			r.seenDups[b.DupID] = true
		}
		if err := net.decodeForWire(&b); err != nil {
			return b, err
		}
		// Recorded before the checks, so the dump of a run a hostile batch
		// aborted shows that batch arriving.
		if err := net.flightRecv(node, &b); err != nil {
			return b, protocolError(node, &b, err.Error())
		}
		if b.Level != level {
			return b, protocolError(node, &b, fmt.Sprintf("arrived during level %d", level))
		}
		if b.Channel >= numChannels {
			return b, protocolError(node, &b, "unknown "+b.Channel.String())
		}
		return b, nil
	}
}

// StartLevel implements Endpoint.
func (e *DirectEndpoint) StartLevel(level int, channels ...Channel) {
	e.level = level
	e.send.start(e.net.Nodes())
	for ch := range e.ends {
		e.ends[ch] = 0
		e.open[ch] = false
	}
	for _, ch := range channels {
		e.open[ch] = true
	}
}

// SendMany implements Endpoint: buffer the staged runs, then ship every
// completed quantum. Full batches are collected under the lock and
// delivered outside it, so concurrent senders only contend on the append.
func (e *DirectEndpoint) SendMany(ch Channel, runs []DstRun, pairs []Pair) error {
	q := e.net.QuantumPairs()
	var full []Batch
	off := 0
	e.send.mu.Lock()
	for _, run := range runs {
		f := &e.send.fifos[ch][run.Dst]
		f.push(pairs[off : off+run.N])
		off += run.N
		for f.n() >= q {
			full = append(full, Batch{
				Kind: KindData, Channel: ch, Src: e.node, Dst: run.Dst, Level: e.level, Pairs: f.take(q),
			})
		}
	}
	e.send.mu.Unlock()
	for i := range full {
		if err := e.net.deliver(full[i]); err != nil {
			return err
		}
	}
	return nil
}

// CloseChannel implements Endpoint: flush residual buffers in ascending
// destination order, then send one end marker to every node (including
// self, a free loopback).
func (e *DirectEndpoint) CloseChannel(ch Channel) error {
	e.send.mu.Lock()
	residual := e.send.residual[ch][:0]
	for dst := range e.send.fifos[ch] {
		f := &e.send.fifos[ch][dst]
		if n := f.n(); n > 0 {
			residual = append(residual, Batch{
				Kind: KindData, Channel: ch, Src: e.node, Dst: dst, Level: e.level, Pairs: f.take(n),
			})
		}
	}
	e.send.residual[ch] = residual
	e.send.mu.Unlock()
	for i := range residual {
		if err := e.net.deliver(residual[i]); err != nil {
			return err
		}
	}
	clear(residual) // the payloads are their receivers' now
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

// Recv implements Endpoint.
func (e *DirectEndpoint) Recv() Event {
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
			if e.ends[b.Channel] == e.net.Nodes() {
				e.open[b.Channel] = false
				return Event{Type: EvChannelClosed, Channel: b.Channel}
			}
		default:
			return Event{Type: EvError, Err: protocolError(e.node, &b, "not a direct-transport kind")}
		}
	}
}
