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
	// run of a Reset network.
	Reset()
}

// DstRun is one run of a staged send stream: N consecutive pairs bound
// for the same destination node.
type DstRun struct {
	Dst int
	N   int
}

// minOpenPairs is the capacity an open batch starts from when the pair
// pool has nothing larger to hand it: small enough that the 63 peers of a
// 64-node Direct machine stay cheap in the small-message regime.
const minOpenPairs = 16

// growPairs returns b with room for n more pairs. When it must move, the
// new buffer comes from the pair pool — a payload a receiver recycled
// becomes the next open batch — and the old one goes back to it. An open
// batch never holds more than a quantum, so it never grows past q.
func growPairs(b []Pair, n, q int) []Pair {
	if len(b)+n <= cap(b) {
		return b
	}
	nb := GetPairs(min(max(2*cap(b), len(b)+n, minOpenPairs), q))[:len(b)]
	copy(nb, b)
	PutPairs(b)
	return nb
}

// route is a transport's routing step: all the endpoint core leaves to the
// transport it serves.
type route interface {
	// seal turns the inner batches of one quantum, out[at:], into what goes
	// on the wire.
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
// `members` consecutive nodes. Each destination has an open batch that
// SendMany appends into, and each group a count of the pairs its open
// batches hold; when the count reaches Network.QuantumPairs, the group's
// open batches are one quantum's inner batches and go out as they are.
// Sealing by fixed quantum — rather than "flush whatever is buffered once
// it crosses the threshold" — makes batch boundaries a pure function of the
// per-group pair sequence, independent of how senders chunked their
// SendMany calls. That invariance is what lets the intra-node worker pools
// promise modelled traffic bit-identical to the serial path.
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

	// mu guards the staging table — per channel, the open batch of every
	// destination and the pair count of every group: generator and handler
	// modules send concurrently. A sealed batch's payload is its
	// receiver's, so the table holds nothing between levels.
	mu      sync.Mutex
	batches [numChannels][][]Pair
	pending [numChannels][]int
	// sealed is each channel's scratch for the batches a call seals under
	// mu and ships outside it. The first seal of a call takes it and
	// shipAll puts it back, so two calls never share it.
	sealed [numChannels][]Batch
}

func newEndpointCore(net *Network, node int, r route, members, closeAfter int) endpointCore {
	groupOf := make([]int, net.Nodes())
	for dst := range groupOf {
		groupOf[dst] = dst / members
	}
	var batches [numChannels][][]Pair
	var pending [numChannels][]int
	for ch := range batches {
		batches[ch] = make([][]Pair, net.Nodes())
		pending[ch] = make([]int, net.Nodes()/members)
	}
	return endpointCore{net: net, node: node, route: r, members: members, closeAfter: closeAfter,
		groupOf: groupOf, batches: batches, pending: pending}
}

func (e *endpointCore) Node() int { return e.node }

// StartLevel implements Endpoint. It empties the staging table, which only
// a level that never closed its channels can have left behind.
func (e *endpointCore) StartLevel(level int, channels ...Channel) {
	e.level = level
	e.mu.Lock()
	for ch := range e.batches {
		clear(e.batches[ch])
		clear(e.pending[ch])
	}
	e.mu.Unlock()
	e.ends, e.open = [numChannels]int{}, [numChannels]bool{}
	for _, ch := range channels {
		e.open[ch] = true
	}
}

// Reset implements Endpoint.
func (e *endpointCore) Reset() {
	e.level, e.ends, e.open, e.seenDups = 0, [numChannels]int{}, [numChannels]bool{}, nil
}

// SendMany implements Endpoint: append each run to its destination's open
// batch, splitting it where its group completes a quantum, and ship every
// quantum sealed. Quanta are sealed under the lock and shipped outside it,
// so concurrent senders only contend on the append.
func (e *endpointCore) SendMany(ch Channel, runs []DstRun, pairs []Pair) error {
	q := e.net.QuantumPairs()
	batches, pending := e.batches[ch], e.pending[ch]
	var full []Batch
	off := 0
	e.mu.Lock()
	for _, run := range runs {
		g := e.groupOf[run.Dst]
		if b := batches[run.Dst]; run.N == 1 && len(b) < cap(b) && pending[g] < q-1 {
			// Round-robin ownership's common case — one pair, room in its
			// open batch, its group short of a quantum — is one store.
			batches[run.Dst] = append(b, pairs[off])
			pending[g]++
			off++
			continue
		}
		for ps := pairs[off : off+run.N]; len(ps) > 0; {
			n := min(len(ps), q-pending[g])
			batches[run.Dst] = append(growPairs(batches[run.Dst], n, q), ps[:n]...)
			ps = ps[n:]
			if pending[g] += n; pending[g] == q {
				full = e.seal(full, ch, g)
			}
		}
		off += run.N
	}
	e.mu.Unlock()
	return e.shipAll(ch, full)
}

// CloseChannel implements Endpoint: seal every group's partial quantum in
// ascending group order, then send the End markers.
func (e *endpointCore) CloseChannel(ch Channel) error {
	var residual []Batch
	e.mu.Lock()
	for g, n := range e.pending[ch] {
		if n > 0 {
			residual = e.seal(residual, ch, g)
		}
	}
	e.mu.Unlock()
	if err := e.shipAll(ch, residual); err != nil {
		return err
	}
	return e.route.end(ch)
}

// seal appends group g's open batches to out as one quantum — inner
// batches in ascending destination order, sealed for the wire — and leaves
// them empty: the payloads go to their receivers.
func (e *endpointCore) seal(out []Batch, ch Channel, g int) []Batch {
	if out == nil {
		out, e.sealed[ch] = e.sealed[ch], nil
	}
	at := len(out)
	members := e.batches[ch][g*e.members : (g+1)*e.members]
	for i, pairs := range members {
		if len(pairs) > 0 {
			out = append(out, Batch{
				Kind: KindData, Channel: ch, Src: e.node, Dst: g*e.members + i, Level: e.level, Pairs: pairs,
			})
			members[i] = nil
		}
	}
	e.pending[ch][g] = 0
	return e.route.seal(ch, out, at)
}

// shipAll delivers what a call sealed and puts the emptied slice back as
// ch's scratch.
func (e *endpointCore) shipAll(ch Channel, sealed []Batch) error {
	if len(sealed) == 0 {
		return nil
	}
	for i := range sealed {
		if err := e.route.ship(sealed[i]); err != nil {
			return err
		}
	}
	clear(sealed) // the payloads are their receivers' now
	e.mu.Lock()
	e.sealed[ch] = sealed[:0]
	e.mu.Unlock()
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
			if !e.open[b.Channel] {
				return Event{Type: EvError, Err: protocolError(e.node, &b, "data on a closed channel")}
			}
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

// seal ships a quantum as it is: one batch for one destination.
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
