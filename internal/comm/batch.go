// Package comm is the message-passing layer of the simulated machine: an
// MPI-like transport between simulated nodes, offered in two flavours —
// Direct (every pair of nodes converses directly, the baseline the paper
// measures against) and Relay (the paper's group-based message batching,
// Section 4.4: nodes form an N x M matrix, messages travel source ->
// relay-in-source-column-and-destination-row -> destination, batched per
// group).
//
// The package also provides the collectives the BFS needs (sum-allreduce
// for frontier accounting and direction choice, OR-allgather for hub
// frontier bitmaps with the paper's empty-flag shortcut) and the MPI
// connection-memory accounting (100 KB per connection) whose exhaustion
// kills direct all-to-all messaging at scale.
package comm

import (
	"fmt"
	"sync"

	"swbfs/internal/graph"
)

// Channel separates the two independent message streams of a BFS level.
// Top-down levels use only ChanForward; bottom-up levels run ChanBackward
// queries whose replies flow on ChanForward.
type Channel uint8

const (
	// ChanForward carries (parent, child) discovery messages.
	ChanForward Channel = iota
	// ChanBackward carries bottom-up parent queries.
	ChanBackward
	numChannels
)

// channelNames and kindNames are the stable wire names: String returns
// them, the flight recorder stores them, the chaos grammar parses them.
var (
	channelNames = [numChannels]string{"forward", "backward"}
	kindNames    = [numKinds]string{"data", "end", "relay-data", "relay-end"}
)

func (c Channel) String() string {
	if c < numChannels {
		return channelNames[c]
	}
	return fmt.Sprintf("channel(%d)", int(c))
}

// Kind tags the wire format of a Batch.
type Kind uint8

const (
	// KindData carries vertex pairs to their final destination.
	KindData Kind = iota
	// KindEnd marks that a sender (or relay) has finished a channel for
	// the level. Termination indicators are exactly the per-pair small
	// messages the paper calls out as a scaling hazard.
	KindEnd
	// KindRelayData is a stage-one envelope: inner batches for multiple
	// destinations within one destination group, sent to the relay node.
	KindRelayData
	// KindRelayEnd tells a relay that a source column peer has finished a
	// channel.
	KindRelayEnd
	numKinds
)

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Pair is one BFS message: (u, v) with semantics depending on the channel —
// forward: u discovered v, u is the candidate parent; backward: unvisited u
// asks whether v (its neighbour) is in the current frontier.
type Pair [2]graph.Vertex

// PairBytes is the wire size of one Pair (two 64-bit vertices).
const PairBytes = 16

// batchHeaderBytes models the per-message envelope (kind, channel, source,
// level, length) — the fixed cost that makes tiny messages wasteful.
const batchHeaderBytes = 16

// Batch is the unit of transport.
type Batch struct {
	Kind    Kind
	Channel Channel
	Src     int
	Dst     int
	Level   int
	Pairs   []Pair
	Inner   []Batch // only for KindRelayData

	// DupID is nonzero only on chaos-injected duplicate deliveries: both
	// copies carry the same id and the receiving endpoint discards the
	// second before any processing or accounting. The copies share the
	// Pairs slice, so the discarded one must never be recycled.
	DupID int64

	// Enc, when non-nil, is the payload in its codec-encoded wire form:
	// deliver encoded Pairs into a pooled buffer and the receiving
	// endpoint decodes it back before any handler sees the batch. EncN
	// remembers the pair count for flight accounting and decode
	// pre-allocation. Like Pairs, a chaos-duplicate's shared buffer must
	// never be recycled twice; the discarded copy only reads EncN.
	Enc  []byte
	EncN int

	// NoCodec ships the batch raw regardless of the channel codec. Relay
	// stage-two re-batches set it: their composition depends on envelope
	// arrival interleaving at the relay, so encoding them would make
	// modelled wire bytes scheduling-dependent.
	NoCodec bool
}

// ByteSize returns the modelled wire size of the batch: the header, the
// payload as it travels — its encoded bytes (an encoded batch carries no
// Pairs), or 16 bytes per pair — and every inner batch.
func (b *Batch) ByteSize() int64 {
	size := int64(batchHeaderBytes) + int64(len(b.Pairs))*PairBytes + int64(len(b.Enc))
	for i := range b.Inner {
		size += b.Inner[i].ByteSize()
	}
	return size
}

// pairPool recycles the payload slices of delivered batches. The BFS hot
// loops ship millions of pairs per level; without recycling, every batch
// is a fresh allocation that dies as soon as the handler scans it. It holds
// *[]Pair (a bare slice header is boxed on every Put); the emptied holders
// go round through holderPool.
var pairPool, holderPool sync.Pool

// GetPairs returns a pooled slice of exactly n pairs (contents
// unspecified; callers overwrite). Ownership convention: the slice placed
// in Batch.Pairs belongs to the receiver, which may return it with
// PutPairs once the batch has been consumed.
func GetPairs(n int) []Pair {
	h, _ := pairPool.Get().(*[]Pair)
	if h == nil {
		return make([]Pair, n)
	}
	p := *h
	*h = nil
	holderPool.Put(h)
	if cap(p) < n {
		return make([]Pair, n)
	}
	return p[:n]
}

// PutPairs recycles a slice obtained from GetPairs (or any slice the
// caller is done with). The caller must not touch the slice afterwards.
func PutPairs(p []Pair) {
	if cap(p) == 0 {
		return
	}
	h, _ := holderPool.Get().(*[]Pair)
	if h == nil {
		h = new([]Pair)
	}
	*h = p[:0]
	pairPool.Put(h)
}

// EventType classifies what Recv returned.
type EventType uint8

const (
	// EvData delivers a data batch to the module layer.
	EvData EventType = iota
	// EvChannelClosed reports that every peer finished the given channel
	// for the current level; emitted exactly once per open channel.
	EvChannelClosed
	// EvError reports a transport failure (e.g. simulated MPI memory
	// exhaustion while relaying); the run must abort.
	EvError
)

// ProtocolError reports a batch that breaks the transport protocol — a
// payload that does not decode, another level's, data or an End on a
// channel the level never opened or has closed, an envelope outside the
// relay's row, an unknown kind or channel, a flight stream running
// backwards — caught by rank Node, or a collective contribution of the
// wrong length (no batch and no rank to name: Node and Src are -1). The run
// aborts with it as the cause.
type ProtocolError struct {
	Node, Src, Level int
	Kind             Kind
	Reason           string
}

func (e *ProtocolError) Error() string {
	if e.Src < 0 {
		return "comm: " + e.Reason
	}
	return fmt.Sprintf("comm: node %d: level-%d %s batch from node %d: %s", e.Node, e.Level, e.Kind, e.Src, e.Reason)
}

func protocolError(node int, b *Batch, reason string) *ProtocolError {
	return &ProtocolError{Node: node, Src: b.Src, Level: b.Level, Kind: b.Kind, Reason: reason}
}

// Event is one Recv result.
type Event struct {
	Type    EventType
	Channel Channel
	Batch   Batch // valid for EvData
	Err     error // valid for EvError
}
