package comm

import (
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
// Both stages ship in fixed quanta (Network.QuantumPairs), so batch
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
	endpointCore
	shape GroupShape

	// Relay-side state: the stage-two open batch of every node in the
	// relay's row, indexed by column, plus the count of stage-one end
	// markers from the node's column. Only the Recv goroutine touches
	// these; a shipped batch's payload is its receiver's, so the open
	// batches hold nothing between levels.
	relayBatches [numChannels][][]Pair
	relayEnds    [numChannels]int

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
	}
	return e, nil
}

func (e *RelayEndpoint) Mode() string { return "relay" }

// StartLevel implements Endpoint.
func (e *RelayEndpoint) StartLevel(level int, channels ...Channel) {
	e.endpointCore.StartLevel(level, channels...)
	for ch := range e.relayBatches {
		clear(e.relayBatches[ch])
	}
	e.relayEnds, e.relayedBytes = [numChannels]int{}, 0
}

// Reset implements Endpoint. The flow sink belongs to the machine.
func (e *RelayEndpoint) Reset() {
	e.endpointCore.Reset()
	e.relayEnds, e.relayedBytes, e.totalRelayedBytes = [numChannels]int{}, 0, 0
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

// seal wraps a quantum in one stage-one envelope to the relay of
// the group in the node's column.
func (e *RelayEndpoint) seal(ch Channel, out []Batch, at int) []Batch {
	inner := slices.Clone(out[at:])
	clear(out[at:])
	return append(out[:at], Batch{
		Kind: KindRelayData, Channel: ch, Src: e.node, Dst: e.shape.Relay(e.node, inner[0].Dst), Level: e.level,
		Inner: inner,
	})
}

// ship delivers one stage-one envelope.
func (e *RelayEndpoint) ship(b Batch) error {
	if e.flows != nil {
		var payload int64
		for i := range b.Inner {
			payload += int64(len(b.Inner[i].Pairs)) * PairBytes
		}
		e.flows.Flow(e.level, b.Channel.String(), obs.FlowStageOne, e.node, b.Dst, payload)
	}
	return e.net.deliver(b)
}

// end tells every relay in the node's column that this source is done.
func (e *RelayEndpoint) end(ch Channel) error {
	col := e.shape.Col(e.node)
	for row := 0; row < e.shape.N; row++ {
		err := e.net.deliver(Batch{
			Kind: KindRelayEnd, Channel: ch, Src: e.node, Dst: row*e.shape.M + col, Level: e.level,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// handle executes the node's relay duties: stage-one envelopes are
// shuffled into per-destination open batches that ship in quanta (the
// Relay modules); the final flush happens when every source in the column
// has signalled done.
func (e *RelayEndpoint) handle(b Batch) error {
	ch := b.Channel
	switch b.Kind {
	case KindRelayData:
		if d := e.net.ChaosDelay(chaos.KindDelayRelay, e.node, e.level); d > 0 {
			time.Sleep(d) // scheduled relay stall: host time only
		}
		for _, in := range b.Inner {
			if in.Dst < 0 || e.shape.Row(in.Dst) != e.shape.Row(e.node) {
				return protocolError(e.node, &b, fmt.Sprintf("envelope for node %d, outside the relay's row", in.Dst))
			}
			e.relayedBytes += int64(len(in.Pairs)) * PairBytes
			e.totalRelayedBytes += int64(len(in.Pairs)) * PairBytes
			if err := e.stageTwo(ch, in.Dst, in.Pairs); err != nil {
				return err
			}
		}
		return nil

	case KindRelayEnd:
		e.relayEnds[ch]++
		if e.relayEnds[ch] < e.shape.N {
			return nil
		}
		// Every source in this column is done: flush residuals in ascending
		// destination order and mark the channel done for the whole row.
		row := e.shape.Row(e.node)
		for col, pairs := range e.relayBatches[ch] {
			if len(pairs) > 0 {
				e.relayBatches[ch][col] = nil
				if err := e.relayFlush(ch, row*e.shape.M+col, pairs); err != nil {
					return err
				}
			}
		}
		for col := 0; col < e.shape.M; col++ {
			err := e.net.deliver(Batch{
				Kind: KindEnd, Channel: ch, Src: e.node, Dst: row*e.shape.M + col, Level: e.level,
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	return protocolError(e.node, &b, "unknown wire kind")
}

// stageTwo adds one arriving inner batch's pairs to dst's open batch and
// ships every quantum that completes. The relay owns buf: what an empty
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
			if err := e.relayFlush(ch, dst, pairs); err != nil {
				return err
			}
		}
	}
	PutPairs(buf)
	return nil
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
