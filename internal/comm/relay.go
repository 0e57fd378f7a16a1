package comm

import (
	"cmp"
	"fmt"
	"slices"
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

// RelayEndpoint implements the group-based message batching transport.
// Stage one: a destination group is the destination's row, and each of its
// quanta travels as one envelope to the group's relay in the sender's
// column. Stage two: the relay shuffles envelopes per final destination
// (the Forward/Backward Relay modules of Figure 10) and forwards batched
// messages within its group.
//
// End markers ride the last message of each hop: a source's last envelope
// to a relay carries its relay-end, and once the relay's column is done,
// its last stage-two batch to each row member carries the End. A bare
// marker goes only to a peer that gets no last batch to carry it.
//
// Stage one ships in fixed quanta (Network.QuantumPairs), so its batch
// counts depend only on per-group pair totals, not on how senders chunked
// their calls. Stage two has one rule per channel kind:
//
//   - On a raw channel the relay streams: each destination's pairs, in
//     arrival order, ship every quantum, and the rest once the relay's
//     column is done. Batch counts depend only on per-destination pair
//     totals; the content of a batch on arrival interleaving, which a raw
//     payload's size does not see.
//   - On a channel that runs a codec the relay forwards stage one's encoded
//     inner batches ("segments") as they arrived, never decoding them; the
//     destination decodes. A segment cannot be split, so nothing ships
//     until the column's last End: then each destination's segments,
//     ordered by source (arrival order within a source, which its FIFO
//     stream fixes), are cut into batches that close once they hold a
//     quantum or more, so composition, size and count are independent of
//     arrival interleaving.
//
// The one residual nondeterminism is the per-destination composition of a
// mid-level stage-one envelope when two modules race on the same channel;
// BFS never does that (generators and handler replies use different
// channels), so modelled traffic stays reproducible. (With a payload
// codec on the forward channel, bottom-up reply batches are still
// arrival-ordered — see the determinism note in docs/ARCHITECTURE.md.)
type RelayEndpoint struct {
	endpointCore
	shape GroupShape

	// Relay-side state for every node in the relay's row, indexed by
	// column: on a raw channel its stage-two open batch, on an encoded one
	// the segments bound for it this level. relayEnds counts the stage-one
	// End markers from the relay's column. Only the Recv goroutine touches
	// these. A shipped batch's payload is its receiver's, so the open
	// batches hold nothing between levels; a shipped batch's segments
	// alias the segment lists until the level ends, so StartLevel (and
	// Reset), not the flush, empties them, and the lists keep their
	// capacity.
	relayBatches [numChannels][][]Pair
	segments     [numChannels][][]Batch
	relayEnds    [numChannels]int

	// relayedBytes counts pair bytes this node shuffled as a relay during
	// the current level — the input volume of its Forward/Backward Relay
	// modules — and relayNanos the host time its relay duties took (both
	// read by the same goroutine that runs Recv).
	relayedBytes, relayNanos int64

	// flows, when TallyFlows turned it on, tallies the current level's
	// pair bytes per transport hop, indexed by channel, stage (0: stage-one
	// envelopes to a relay, 1: stage-two batches to a destination) and
	// peer. Stage one is tallied when sealed, under the staging lock;
	// stage two on the Recv goroutine. Nil tallies when off.
	flows [numChannels][2][]int64
}

// NewRelayEndpoint creates the rank for `node` under the given shape.
func NewRelayEndpoint(net *Network, node int, shape GroupShape) (*RelayEndpoint, error) {
	if shape.Nodes() != net.Nodes() {
		return nil, fmt.Errorf("comm: group shape %dx%d does not cover %d nodes",
			shape.N, shape.M, net.Nodes())
	}
	e := &RelayEndpoint{shape: shape}
	e.endpointCore = newEndpointCore(net, node, e, shape.M, shape.M)
	for ch := range e.relayBatches {
		e.relayBatches[ch] = make([][]Pair, shape.M)
		e.segments[ch] = make([][]Batch, shape.M)
	}
	return e, nil
}

// StartLevel implements Endpoint.
func (e *RelayEndpoint) StartLevel(level int, channels ...Channel) {
	e.endpointCore.StartLevel(level, channels...)
	for ch := range e.relayBatches {
		clear(e.relayBatches[ch])
	}
	e.emptyLevel()
}

// Reset implements Endpoint. Whether flows are tallied is the machine's
// to say (TallyFlows).
func (e *RelayEndpoint) Reset() {
	e.endpointCore.Reset()
	e.emptyLevel()
}

// emptyLevel clears the relay side's per-level books — End counts, relayed
// bytes, flow tallies — and empties every segment list, keeping its
// capacity for the next level, run or not: once a level has ended, no
// shipped batch aliases the lists any more.
func (e *RelayEndpoint) emptyLevel() {
	e.relayEnds, e.relayedBytes, e.relayNanos = [numChannels]int{}, 0, 0
	for ch := range e.segments {
		for col, segs := range e.segments[ch] {
			clear(segs)
			e.segments[ch][col] = segs[:0]
		}
		clear(e.flows[ch][0])
		clear(e.flows[ch][1])
	}
}

// TallyFlows turns the per-level flow tally on or off. Call it before the
// endpoint carries traffic.
func (e *RelayEndpoint) TallyFlows(on bool) {
	for ch := range e.flows {
		for st, tally := range e.flows[ch] {
			switch {
			case !on:
				e.flows[ch][st] = nil
			case tally == nil:
				e.flows[ch][st] = make([]int64, e.net.Nodes())
			}
		}
	}
}

// AppendFlows appends the current level's tallied hops to links, one link
// per (channel, stage, peer) that carried pair bytes. Call it once the
// level's traffic is done and before the next StartLevel.
func (e *RelayEndpoint) AppendFlows(links []obs.FlowLink) []obs.FlowLink {
	for ch := range e.flows {
		for st, tally := range e.flows[ch] {
			for peer, b := range tally {
				if b > 0 {
					links = append(links, obs.FlowLink{
						Level: e.level, Channel: Channel(ch).String(), Stage: obs.FlowStage(st + 1),
						From: e.node, To: peer, Bytes: b,
					})
				}
			}
		}
	}
	return links
}

// Relayed reports the pair bytes relayed during the current level and the
// host nanoseconds the node's relay duties took, its scheduled relay stalls
// included. Call it from the handler goroutine after the level completes.
func (e *RelayEndpoint) Relayed() (bytes, nanos int64) { return e.relayedBytes, e.relayNanos }

// seal wraps a quantum in one stage-one envelope to the relay of
// the group in the node's column.
func (e *RelayEndpoint) seal(ch Channel, out []Batch, at int) []Batch {
	inner := slices.Clone(out[at:])
	clear(out[at:])
	relay := e.shape.Relay(e.node, inner[0].Dst)
	if tally := e.flows[ch][0]; tally != nil {
		for i := range inner {
			tally[relay] += int64(len(inner[i].Pairs)) * PairBytes
		}
	}
	return append(out[:at], Batch{
		Kind: KindRelayData, Channel: ch, Src: e.node, Dst: relay, Level: e.level,
		Inner: inner,
	})
}

// ship delivers one stage-one envelope.
func (e *RelayEndpoint) ship(b Batch) error { return e.net.deliver(b) }

// end tells each relay of the node's column that no flushed envelope
// reached that this source has finished the channel.
func (e *RelayEndpoint) end(ch Channel, covered []bool) error {
	col := e.shape.Col(e.node)
	for row := 0; row < e.shape.N; row++ {
		relay := row*e.shape.M + col
		if covered[relay] {
			continue
		}
		err := e.net.deliver(Batch{
			Kind: KindRelayEnd, Channel: ch, Src: e.node, Dst: relay, Level: e.level,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// handle executes the node's relay duties: stage-one envelopes are
// shuffled per destination (the Relay modules) — streamed in quanta on a
// raw channel, collected as encoded segments on a channel that runs a
// codec — and the final flush happens when every source in the column has
// signalled done, by a relay-end or by an envelope that carried one. Its
// host time is the node's relay time (Relayed).
func (e *RelayEndpoint) handle(b Batch) error {
	start := time.Now()
	defer func() { e.relayNanos += int64(time.Since(start)) }()
	ch := b.Channel
	if (b.Kind == KindRelayData || b.Kind == KindRelayEnd) && e.relayEnds[ch] == e.shape.N {
		return protocolError(e.node, &b, "arrived after the relay's column finished the channel")
	}
	switch b.Kind {
	case KindRelayData:
		if d := e.net.ChaosDelay(chaos.KindDelayRelay, e.node, e.level); d > 0 {
			time.Sleep(d) // scheduled relay stall: host time only
		}
		encoded := e.net.codecFor(ch) != nil
		for i := range b.Inner {
			in := &b.Inner[i]
			if in.Dst < 0 || e.shape.Row(in.Dst) != e.shape.Row(e.node) {
				return protocolError(e.node, &b, fmt.Sprintf("envelope for node %d, outside the relay's row", in.Dst))
			}
			e.relayedBytes += int64(payloadPairs(in)) * PairBytes
			if encoded {
				col := e.shape.Col(in.Dst)
				e.segments[ch][col] = append(e.segments[ch][col], *in)
			} else if err := e.stageTwo(ch, in.Dst, in.Pairs); err != nil {
				return err
			}
		}
		if b.End {
			return e.sourceDone(ch)
		}
		return nil

	case KindRelayEnd:
		return e.sourceDone(ch)
	}
	return protocolError(e.node, &b, "unknown wire kind")
}

// sourceDone counts one source of the relay's column finishing ch. Once
// every source has, it flushes the row in ascending destination order:
// each member's leftover pairs or encoded segments, the last batch carrying
// the End, and a bare End to a member with nothing left to receive.
func (e *RelayEndpoint) sourceDone(ch Channel) error {
	if e.relayEnds[ch]++; e.relayEnds[ch] < e.shape.N {
		return nil
	}
	row := e.shape.Row(e.node)
	for col, pairs := range e.relayBatches[ch] {
		dst := row*e.shape.M + col
		var err error
		switch segs := e.segments[ch][col]; {
		case len(pairs) > 0:
			e.relayBatches[ch][col] = nil
			err = e.forward(ch, dst, pairs, nil, true)
		case len(segs) > 0:
			err = e.forwardSegments(ch, dst, segs)
		default:
			err = e.net.deliver(Batch{Kind: KindEnd, Channel: ch, Src: e.node, Dst: dst, Level: e.level})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stageTwo adds one arriving inner batch's raw pairs to dst's open batch
// and ships every quantum that completes. The relay owns buf: what an empty
// open batch can take whole it adopts, moved to the front of buf, and only
// the pairs joining a non-empty open batch are copied.
func (e *RelayEndpoint) stageTwo(ch Channel, dst int, buf []Pair) error {
	q := e.net.QuantumPairs()
	open := &e.relayBatches[ch][e.shape.Col(dst)]
	for ps := buf; len(ps) > 0; {
		if len(*open) == 0 && len(ps) <= q {
			if len(ps) < len(buf) {
				copy(buf, ps)
			}
			*open, ps, buf = buf[:len(ps)], nil, nil
		} else {
			n := min(q-len(*open), len(ps))
			*open = append(growPairs(*open, n, q), ps[:n]...)
			ps = ps[n:]
		}
		if len(*open) == q {
			pairs := *open
			*open = nil
			if err := e.forward(ch, dst, pairs, nil, false); err != nil {
				return err
			}
		}
	}
	PutPairs(buf)
	return nil
}

// forwardSegments ships the encoded segments bound for dst this level:
// ordered by source, arrival order kept within a source, and cut into
// batches that close once they hold a quantum of pairs or more. The last
// batch carries the relay's End.
func (e *RelayEndpoint) forwardSegments(ch Channel, dst int, segs []Batch) error {
	slices.SortStableFunc(segs, func(a, b Batch) int { return cmp.Compare(a.Src, b.Src) })
	q := e.net.QuantumPairs()
	for start, n, i := 0, 0, 0; i < len(segs); i++ {
		last := i == len(segs)-1
		if n += segs[i].EncN; n >= q || last {
			if err := e.forward(ch, dst, nil, segs[start:i+1:i+1], last); err != nil {
				return err
			}
			start, n = i+1, 0
		}
	}
	return nil
}

// forward ships one stage-two batch to dst: raw pairs, or encoded segments
// for the destination to decode; end says it carries the relay's End.
func (e *RelayEndpoint) forward(ch Channel, dst int, pairs []Pair, segs []Batch, end bool) error {
	b := Batch{Kind: KindData, Channel: ch, Src: e.node, Dst: dst, Level: e.level, Pairs: pairs, Inner: segs, End: end}
	if tally := e.flows[ch][1]; tally != nil {
		tally[dst] += int64(payloadPairs(&b)) * PairBytes
	}
	return e.net.deliver(b)
}
