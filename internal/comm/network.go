package comm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/fabric"
	"swbfs/internal/obs"
)

// atomicInt64 aliases the stdlib atomic counter (named for struct-field
// readability).
type atomicInt64 = atomic.Int64

// MPI resource model from Sections 3.3 and 4.4.
const (
	// MPIConnectionBytes is the memory one MPI connection pins ("every
	// connection uses 100 KB memory due to the MPI library").
	MPIConnectionBytes = 100 << 10

	// DefaultMPIMemoryBudget caps the per-node MPI buffer memory. The
	// paper's Direct-MPE runs survive 4,096 peers (~400 MB) and crash at
	// 16,384 (~1.6 GB) from "memory exhaust caused by too many MPI
	// connections"; a 1 GB budget reproduces that crash point.
	DefaultMPIMemoryBudget = int64(1) << 30

	// DefaultBatchBytes is the flush threshold for send-side batching: a
	// buffer is transmitted once it reaches this many bytes. 64 KB keeps
	// the fixed per-message costs negligible, per the paper's "maximize
	// the utilization of both memory and network bandwidth by batching".
	DefaultBatchBytes = 64 << 10
)

// Send-retry policy: a transiently failed or dropped delivery is
// retransmitted after a short backoff. MaxSendAttempts bounds the total
// attempts per delivery; a node that stays unreachable for all of them is
// treated as dead and the send fails permanently.
const (
	MaxSendAttempts = 4
	retryBackoff    = 100 * time.Microsecond
)

// ErrAborted marks errors that are consequences of the job teardown
// rather than its cause: deliveries and receives failing because a peer
// already called Abort. Callers filter it with errors.Is so the first
// real failure is the one reported.
var ErrAborted = errors.New("comm: network aborted")

// ErrNodeKilled reports a chaos-killed node: the fault plan scheduled the
// node's death and every send it attempted from that point failed through
// all retry attempts.
type ErrNodeKilled struct {
	Node  int
	Level int
}

func (e *ErrNodeKilled) Error() string {
	return fmt.Sprintf("comm: node %d killed by fault plan during level %d (unreachable after %d send attempts)",
		e.Node, e.Level, MaxSendAttempts)
}

// ErrConnMemory reports per-node MPI connection memory exhaustion — the
// crash the paper observes for direct messaging at 16,384 nodes.
type ErrConnMemory struct {
	Node        int
	Connections int
	Budget      int64
}

func (e *ErrConnMemory) Error() string {
	return fmt.Sprintf("comm: node %d exhausted MPI memory: %d connections x %d B > budget %d B",
		e.Node, e.Connections, MPIConnectionBytes, e.Budget)
}

// Config configures a simulated network.
type Config struct {
	Nodes int
	// SuperNodeSize scales the fat tree (defaults to the machine's 256).
	SuperNodeSize int
	// BatchBytes is the send-buffer flush threshold (DefaultBatchBytes if
	// zero).
	BatchBytes int64
	// MPIMemoryBudget is the per-node connection memory cap
	// (DefaultMPIMemoryBudget if zero).
	MPIMemoryBudget int64
	// Codec compresses data payloads on the wire (nil = raw, 16 bytes per
	// pair; AdaptiveCodec is the one codec, and tags every payload with
	// the layout it picked): batches travel as their encoded bytes and are
	// decoded on arrival. Delivery is lossless either way.
	Codec PayloadCodec
	// CodecBackward, when non-nil, overrides Codec on the backward
	// channel. The bottom-up query waves are the dense traffic where the
	// bitmap layout wins; keeping the forward channel raw also
	// keeps modelled wire bytes deterministic, because bottom-up forward
	// replies are emitted in arrival order (see docs/ARCHITECTURE.md,
	// "Wire encoding").
	CodecBackward PayloadCodec
	// Chaos, when non-nil, injects the compiled fault plan into every
	// delivery (see internal/chaos and docs/CHAOS.md).
	Chaos *chaos.Injector
	// Flight, when non-nil, receives one black-box event per logical
	// delivery (send on the source, recv/dup-drop on the destination) for
	// post-mortem dumps (see docs/OBSERVABILITY.md).
	Flight *obs.FlightRecorder
}

// Network owns the inboxes, traffic counters and connection tracking of a
// set of simulated nodes. Endpoints (direct or relay) are created per node.
type Network struct {
	Topo     fabric.Topology
	Counters *fabric.Counters

	batchBytes    int64
	budget        int64
	codec         PayloadCodec
	codecBackward PayloadCodec

	inboxes []*Inbox

	// connected is the src x dst MPI connection matrix (index
	// src*Nodes+dst): deliver answers "already connected" with one atomic
	// load. connMu serializes the setters and guards connCount, the
	// per-source number of connections.
	connMu    sync.Mutex
	connected []atomic.Bool
	connCount []int

	// Per-node sent network message/byte counters (atomic; indexed by
	// source node), feeding the per-node critical-path statistics.
	nodeMsgs  []atomicInt64
	nodeBytes []atomicInt64

	// kindMsgs counts delivered batches per wire kind (data, end markers,
	// relay envelopes) — the batching-ratio statistics the observability
	// layer reports.
	kindMsgs [numKinds]atomicInt64

	// codecMsgs/codecBytes count payload-encoded messages and their
	// encoded bytes per wire format (direct data batches and relay
	// stage-one inner batches each count once). All zero when no codec is
	// configured.
	codecMsgs  [numWireFormats]atomicInt64
	codecBytes [numWireFormats]atomicInt64

	// chaos injects scheduled faults into deliveries (nil = perfect
	// fabric). retries counts retransmissions after transient faults;
	// dupSeq numbers injected duplicate deliveries so receivers can
	// discard the extra copy.
	chaos   *chaos.Injector
	retries atomicInt64
	dupSeq  atomicInt64

	// flight is the black-box recorder fed from deliver (sends) and the
	// endpoints (receives, dup-drops); nil disables at zero cost.
	flight *obs.FlightRecorder

	coll *collectiveGroup
}

// NewNetwork builds the shared state for cfg.Nodes simulated nodes.
func NewNetwork(cfg Config) (*Network, error) {
	topo, err := fabric.NewTopology(cfg.Nodes, cfg.SuperNodeSize)
	if err != nil {
		return nil, err
	}
	if cfg.BatchBytes == 0 {
		cfg.BatchBytes = DefaultBatchBytes
	}
	if cfg.BatchBytes < PairBytes {
		return nil, fmt.Errorf("comm: batch threshold %d below one pair", cfg.BatchBytes)
	}
	if cfg.MPIMemoryBudget == 0 {
		cfg.MPIMemoryBudget = DefaultMPIMemoryBudget
	}
	n := &Network{
		Topo:          topo,
		Counters:      &fabric.Counters{},
		batchBytes:    cfg.BatchBytes,
		budget:        cfg.MPIMemoryBudget,
		inboxes:       make([]*Inbox, cfg.Nodes),
		connected:     make([]atomic.Bool, cfg.Nodes*cfg.Nodes),
		connCount:     make([]int, cfg.Nodes),
		nodeMsgs:      make([]atomicInt64, cfg.Nodes),
		nodeBytes:     make([]atomicInt64, cfg.Nodes),
		codec:         cfg.Codec,
		codecBackward: cfg.CodecBackward,
		chaos:         cfg.Chaos,
		flight:        cfg.Flight,
	}
	for i := range n.inboxes {
		n.inboxes[i] = NewInbox()
	}
	n.coll = newCollectiveGroup(n)
	n.flight.SetStreamNames(kindNames[:], channelNames[:])
	return n, nil
}

// Reset returns a cleanly closed network to the state NewNetwork left it
// in, under the next run's fault injector: every counter a run accumulates
// and the connection matrix (MaxConnections is per run) are zeroed, the
// collectives rewound, the inboxes emptied and reopened with their capacity.
// Never reset a network that aborted: its inboxes may hold live batches.
func (n *Network) Reset(inj *chaos.Injector) {
	n.Counters.Restore(fabric.Snapshot{})
	for _, counters := range [][]atomicInt64{n.nodeMsgs, n.nodeBytes, n.kindMsgs[:], n.codecMsgs[:], n.codecBytes[:]} {
		for i := range counters {
			counters[i].Store(0)
		}
	}
	n.retries.Store(0)
	n.dupSeq.Store(0)
	n.chaos = inj
	n.connMu.Lock()
	for i := range n.connected {
		n.connected[i].Store(false)
	}
	clear(n.connCount)
	n.connMu.Unlock()
	for _, in := range n.inboxes {
		in.reopen()
	}
	n.coll = newCollectiveGroup(n) // generation, accumulators and the abort flag start over
}

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.Topo.Nodes }

// BatchBytes returns the flush threshold.
func (n *Network) BatchBytes() int64 { return n.batchBytes }

// QuantumPairs returns the batch quantum: the number of pairs whose
// payload first reaches the flush threshold. Endpoints drain send buffers
// in multiples of exactly this many pairs, which makes batch boundaries a
// function of per-destination pair counts alone — independent of how the
// pairs were chunked across SendMany calls.
func (n *Network) QuantumPairs() int {
	return int((n.batchBytes + PairBytes - 1) / PairBytes)
}

// deliver transmits a batch: establishes the MPI connection (with budget
// enforcement), records the traffic and enqueues at the destination.
//
// A poisoned (aborted) network fails every delivery immediately with an
// ErrAborted-wrapped error — closed inboxes silently drop pushes, so
// without this check senders would keep scanning and shipping into the
// void after a peer failure. The abort check runs before the fault
// injector so post-abort sends never consume fault coordinates.
//
// Fault injection: the injector is consulted once per logical delivery,
// and once more for the End a batch carries, which is its own op. A
// transient send failure or wire drop costs one retry (bounded backoff,
// counted in comm.retries) and then retransmits; failed attempts charge no
// modelled traffic, so a recovered run's counters match the fault-free
// run. A kill exhausts all MaxSendAttempts and fails permanently. A
// duplicate pushes the batch twice under one DupID; the receiver discards
// the second copy, and the wire charge stays single so the run identity
// is preserved (retransmissions and duplicates live outside the modelled
// machine — see docs/CHAOS.md).
func (n *Network) deliver(b Batch) error {
	if b.Dst < 0 || b.Dst >= n.Nodes() {
		return fmt.Errorf("comm: delivery to invalid node %d", b.Dst)
	}
	if n.Aborted() {
		return fmt.Errorf("comm: node %d delivery to %d refused: %w", b.Src, b.Dst, ErrAborted)
	}
	var (
		dup     bool
		killed  bool
		retries int
		fault   string
	)
	if n.chaos != nil {
		strike := func(f chaos.Fault) {
			if fault != "" {
				fault += ","
			}
			fault += f.String()
			switch f.Kind {
			case chaos.KindKill:
				killed = true
				retries = MaxSendAttempts - 1
			case chaos.KindSendFail, chaos.KindDrop:
				retries = max(retries, 1)
			case chaos.KindDup:
				dup = true
			}
		}
		if f, ok := n.chaos.OnDeliver(b.Src, b.Level, uint8(b.Kind), uint8(b.Channel)); ok {
			strike(f)
		}
		// A carried End is still its sender's next op on the End's own
		// stream, so a fault scheduled there strikes this delivery.
		if end, ok := b.carriedEnd(); ok {
			if f, ok := n.chaos.OnDeliver(b.Src, b.Level, uint8(end), uint8(b.Channel)); ok {
				strike(f)
			}
		}
	}
	// The send event is recorded before the kill verdict so a dump shows
	// the killed node's final, doomed delivery attempt.
	if err := n.flight.Send(b.Src, b.Dst, b.Level, payloadPairs(&b), retries,
		uint8(b.Kind), uint8(b.Channel), b.flightEnd(), fault); err != nil {
		return protocolError(b.Src, &b, err.Error())
	}
	if killed {
		for attempt := 1; attempt < MaxSendAttempts; attempt++ {
			n.retries.Add(1)
			time.Sleep(retryBackoff * time.Duration(attempt))
		}
		return &ErrNodeKilled{Node: b.Src, Level: b.Level}
	}
	if retries > 0 {
		n.retries.Add(1)
		time.Sleep(retryBackoff)
	}
	n.encodeForWire(&b)
	class := n.Topo.Classify(b.Src, b.Dst)
	wire := b.ByteSize()
	n.kindMsgs[b.Kind].Add(1)
	if class != fabric.Loopback {
		if err := n.connect(b.Src, b.Dst); err != nil {
			return err
		}
		n.nodeMsgs[b.Src].Add(1)
		n.nodeBytes[b.Src].Add(wire)
	}
	n.Counters.Record(class, wire)
	if dup {
		b.DupID = n.dupSeq.Add(1)
		n.inboxes[b.Dst].Push(b)
	}
	n.inboxes[b.Dst].Push(b)
	return nil
}

// payloadPairs counts the vertex pairs a batch carries, descending into
// relay envelopes — the payload figure flight events report. An encoded
// batch carries its pre-encoding pair count.
func payloadPairs(b *Batch) int {
	pairs := len(b.Pairs)
	if b.Enc != nil {
		pairs = b.EncN
	}
	for i := range b.Inner {
		pairs += payloadPairs(&b.Inner[i])
	}
	return pairs
}

// encodeForWire replaces a data payload with its codec-encoded bytes when
// the channel runs a codec: direct data batches and the inner batches of a
// relay stage-one envelope. Empty payloads pass through, and so does a
// relay stage-two batch on such a channel: its payload is stage one's
// segments, already encoded. The pair slice returns to the pool — the
// receiver gets a freshly decoded pooled slice instead.
func (n *Network) encodeForWire(b *Batch) {
	switch b.Kind {
	case KindData:
		codec := n.codecFor(b.Channel)
		if codec == nil || len(b.Pairs) == 0 {
			return
		}
		enc, format := codec.EncodePayload(getEncBuf(), b.Channel, b.Pairs)
		n.codecMsgs[format].Add(1)
		n.codecBytes[format].Add(int64(len(enc)))
		b.EncN = len(b.Pairs)
		PutPairs(b.Pairs)
		b.Pairs = nil
		b.Enc = enc
	case KindRelayData:
		for i := range b.Inner {
			n.encodeForWire(&b.Inner[i])
		}
	}
}

// decodeForWire restores the pair payload of an encoded batch into a
// pooled slice. Endpoints call it once per consumed delivery, after
// duplicate discarding and before any handler or relay accounting sees the
// batch. A relay stage-two batch's segments decode back to back into one
// slice that replaces them and their encode buffers are recycled; the
// segments themselves are not written, because the relay's segment list
// and a chaos duplicate share them. A relay envelope's inner batches stay
// encoded — the relay forwards them — and get only the checks that need no
// decode. A failure — bytes that do not decode, a pair count they do not
// hold, an encoded payload on a raw channel or a raw one on an encoded
// channel — is a protocol violation, reported for the endpoint to wrap.
func (n *Network) decodeForWire(b *Batch) error {
	codec := n.codecFor(b.Channel)
	if b.Enc != nil {
		if err := checkEncoded(codec, b.Channel, b); err != nil {
			return err
		}
		pairs, err := decodeInto(codec, GetPairs(b.EncN)[:0], b)
		if err != nil {
			return err
		}
		putEncBuf(b.Enc)
		b.Enc = nil
		b.Pairs = pairs
	}
	switch {
	case b.Kind == KindRelayData:
		for i := range b.Inner {
			if in := &b.Inner[i]; in.Enc != nil || codec != nil {
				if err := checkEncoded(codec, b.Channel, in); err != nil {
					return err
				}
			}
		}
	case b.Kind == KindData && len(b.Inner) > 0:
		if codec == nil {
			return fmt.Errorf("encoded segments on the raw %s channel", b.Channel)
		}
		total := 0
		for i := range b.Inner {
			if err := checkEncoded(codec, b.Channel, &b.Inner[i]); err != nil {
				return fmt.Errorf("segment %d: %w", i, err)
			}
			total += b.Inner[i].EncN
		}
		pairs := GetPairs(total)[:0]
		for i := range b.Inner {
			var err error
			if pairs, err = decodeInto(codec, pairs, &b.Inner[i]); err != nil {
				return fmt.Errorf("segment %d: %w", i, err)
			}
		}
		for i := range b.Inner {
			putEncBuf(b.Inner[i].Enc)
		}
		b.Inner = nil
		b.Pairs = pairs
	}
	return nil
}

// checkEncoded is what can be checked of an encoded payload on channel ch
// without decoding it: the channel runs a codec, the payload is encoded,
// and its bytes could carry its pair count.
func checkEncoded(codec PayloadCodec, ch Channel, b *Batch) error {
	switch {
	case codec == nil:
		return fmt.Errorf("encoded payload on the raw %s channel", ch)
	case b.Enc == nil:
		return fmt.Errorf("unencoded payload on the encoded %s channel", ch)
	case b.EncN < 0 || b.EncN > len(b.Enc): // every format spends a byte or more per pair
		return fmt.Errorf("%d payload bytes cannot carry %d pairs", len(b.Enc), b.EncN)
	}
	return nil
}

// decodeInto appends b's checked encoded payload to pairs. On a failure it
// recycles pairs.
func decodeInto(codec PayloadCodec, pairs []Pair, b *Batch) ([]Pair, error) {
	before := len(pairs)
	pairs, err := codec.DecodePayload(pairs, b.Enc)
	switch {
	case err != nil:
		err = fmt.Errorf("undecodable payload: %w", err)
	case len(pairs)-before != b.EncN:
		err = fmt.Errorf("payload decoded to %d pairs, want %d", len(pairs)-before, b.EncN)
	}
	if err != nil {
		PutPairs(pairs)
		return nil, err
	}
	return pairs, nil
}

// flightRecv records a consumed delivery in the flight recorder; endpoints
// call it once per batch that survives duplicate discarding.
func (n *Network) flightRecv(node int, b *Batch) error {
	return n.flight.Recv(node, b.Src, b.Level, payloadPairs(b), uint8(b.Kind), uint8(b.Channel), b.flightEnd())
}

// flightDupDrop records a discarded chaos-duplicate delivery.
func (n *Network) flightDupDrop(node int, b *Batch) error {
	return n.flight.DupDrop(node, b.Src, b.Level, payloadPairs(b), uint8(b.Kind), uint8(b.Channel), b.flightEnd())
}

// ChaosDelay returns the scheduled chaos delay of a module site for
// (node, level), consuming it; zero without an injector or scheduled
// fault. The caller sleeps on its own module goroutine — host time only,
// the modelled machine never sees it.
func (n *Network) ChaosDelay(kind chaos.Kind, node, level int) time.Duration {
	if n.chaos == nil {
		return 0
	}
	return time.Duration(n.chaos.Delay(kind, node, level)) * chaos.StepDuration
}

// Retries reports how many retransmission attempts the fault injector has
// forced so far.
func (n *Network) Retries() int64 { return n.retries.Load() }

// NodeSent returns the network messages and bytes node has sent so far
// (loopback excluded). Callers snapshot before/after a level for deltas.
func (n *Network) NodeSent(node int) (msgs, bytes int64) {
	return n.nodeMsgs[node].Load(), n.nodeBytes[node].Load()
}

// connect tracks the src->dst MPI connection and enforces the memory budget.
func (n *Network) connect(src, dst int) error {
	c := &n.connected[src*n.Nodes()+dst]
	if c.Load() {
		return nil
	}
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if c.Swap(true) {
		return nil
	}
	n.connCount[src]++
	if count := n.connCount[src]; int64(count)*MPIConnectionBytes > n.budget {
		return &ErrConnMemory{Node: src, Connections: count, Budget: n.budget}
	}
	return nil
}

// ConnectionCount returns the distinct peers the node has messaged.
func (n *Network) ConnectionCount(node int) int {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	return n.connCount[node]
}

// MaxConnectionCount returns the machine-wide maximum per-node connection
// count — the number that drives MPI memory consumption.
func (n *Network) MaxConnectionCount() int {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	return slices.Max(n.connCount)
}

// ConnectionMemoryBytes returns the modelled MPI memory of the
// worst-loaded node.
func (n *Network) ConnectionMemoryBytes() int64 {
	return int64(n.MaxConnectionCount()) * MPIConnectionBytes
}

// MetricsInto folds the network's traffic counters into an obs metrics
// registry: per-link-class bytes and messages (point-to-point and
// collective) under "comm.*", batch counts per wire kind, and the
// connection high-water mark. A run's Network is ephemeral, so callers
// fold once at the end of each run; the registry accumulates across runs.
func (n *Network) MetricsInto(r *obs.Registry) {
	if r == nil {
		return
	}
	n.Counters.Snapshot().AddTo(r, "comm")
	for k := Kind(0); k < numKinds; k++ {
		r.Counter("comm.batches." + k.String()).Add(n.kindMsgs[k].Load())
	}
	r.Gauge("comm.connections.max").SetMax(int64(n.MaxConnectionCount()))
	r.Gauge("comm.connections.memory_bytes").SetMax(n.ConnectionMemoryBytes())
	if v := n.retries.Load(); v > 0 {
		r.Counter("comm.retries").Add(v)
	}
	for f := WireFormat(0); f < numWireFormats; f++ {
		if msgs := n.codecMsgs[f].Load(); msgs > 0 {
			r.Counter("comm.codec.messages." + f.String()).Add(msgs)
			r.Counter("comm.codec.bytes." + f.String()).Add(n.codecBytes[f].Load())
		}
	}
}

// CodecTraffic reports the per-wire-format encoded traffic of the run:
// one entry per format that carried at least one payload, in format
// order. Empty when no codec ran.
func (n *Network) CodecTraffic() []obs.CodecFormatTraffic {
	var out []obs.CodecFormatTraffic
	for f := WireFormat(0); f < numWireFormats; f++ {
		if msgs := n.codecMsgs[f].Load(); msgs > 0 {
			out = append(out, obs.CodecFormatTraffic{
				Format:   f.String(),
				Messages: msgs,
				Bytes:    n.codecBytes[f].Load(),
			})
		}
	}
	return out
}

// NetState is the network's checkpointable counter state. It captures
// everything the reporting paths read cumulatively — fabric counters,
// per-node send totals, per-kind batch counts, established connections and
// forced retries — so a resumed run's totals continue exactly where the
// checkpoint's did. Inbox contents are intentionally absent: checkpoints
// are taken at level barriers, where no batch is in flight.
type NetState struct {
	Counters  fabric.Snapshot `json:"counters"`
	NodeMsgs  []int64         `json:"node_msgs"`
	NodeBytes []int64         `json:"node_bytes"`
	KindMsgs  []int64         `json:"kind_msgs"`
	// Conns[src] lists the destination nodes src has connected to, sorted.
	Conns   [][]int `json:"conns"`
	Retries int64   `json:"retries"`
	// CodecMsgs/CodecBytes carry the per-wire-format payload counters,
	// indexed by WireFormat. Omitted entirely when no payload codec ran,
	// so checkpoints of codec-free runs are byte-identical to older ones.
	CodecMsgs  []int64 `json:"codec_msgs,omitempty"`
	CodecBytes []int64 `json:"codec_bytes,omitempty"`
}

// CaptureState snapshots the network's counters for a checkpoint. The
// caller quiesces the machine first (the runner captures at level
// barriers).
func (n *Network) CaptureState() NetState {
	st := NetState{
		Counters:  n.Counters.Snapshot(),
		NodeMsgs:  make([]int64, len(n.nodeMsgs)),
		NodeBytes: make([]int64, len(n.nodeBytes)),
		KindMsgs:  make([]int64, numKinds),
		Retries:   n.retries.Load(),
	}
	for i := range n.nodeMsgs {
		st.NodeMsgs[i] = n.nodeMsgs[i].Load()
		st.NodeBytes[i] = n.nodeBytes[i].Load()
	}
	for k := Kind(0); k < numKinds; k++ {
		st.KindMsgs[k] = n.kindMsgs[k].Load()
	}
	for f := WireFormat(0); f < numWireFormats; f++ {
		if n.codecMsgs[f].Load() > 0 {
			st.CodecMsgs = make([]int64, numWireFormats)
			st.CodecBytes = make([]int64, numWireFormats)
			for g := WireFormat(0); g < numWireFormats; g++ {
				st.CodecMsgs[g] = n.codecMsgs[g].Load()
				st.CodecBytes[g] = n.codecBytes[g].Load()
			}
			break
		}
	}
	n.connMu.Lock()
	st.Conns = make([][]int, len(n.connCount))
	for src, count := range n.connCount {
		dsts := make([]int, 0, count)
		for dst := range n.connCount {
			if n.connected[src*len(n.connCount)+dst].Load() {
				dsts = append(dsts, dst)
			}
		}
		st.Conns[src] = dsts
	}
	n.connMu.Unlock()
	return st
}

// RestoreState loads a captured counter state into a fresh network. The
// resume path calls it before any node goroutine starts. The duplicate
// sequence counter is deliberately left fresh: endpoint dedup maps are
// per-run and every pre-checkpoint duplicate was fully consumed.
func (n *Network) RestoreState(st NetState) error {
	if len(st.NodeMsgs) != len(n.nodeMsgs) || len(st.NodeBytes) != len(n.nodeBytes) ||
		len(st.Conns) != len(n.connCount) {
		return fmt.Errorf("comm: checkpoint network state is for %d nodes, network has %d",
			len(st.NodeMsgs), len(n.nodeMsgs))
	}
	n.Counters.Restore(st.Counters)
	for i := range n.nodeMsgs {
		n.nodeMsgs[i].Store(st.NodeMsgs[i])
		n.nodeBytes[i].Store(st.NodeBytes[i])
	}
	for k := Kind(0); k < numKinds && int(k) < len(st.KindMsgs); k++ {
		n.kindMsgs[k].Store(st.KindMsgs[k])
	}
	for f := WireFormat(0); f < numWireFormats && int(f) < len(st.CodecMsgs); f++ {
		n.codecMsgs[f].Store(st.CodecMsgs[f])
	}
	for f := WireFormat(0); f < numWireFormats && int(f) < len(st.CodecBytes); f++ {
		n.codecBytes[f].Store(st.CodecBytes[f])
	}
	for src, dsts := range st.Conns {
		for _, dst := range dsts {
			if dst < 0 || dst >= len(n.connCount) {
				return fmt.Errorf("comm: checkpoint connects node %d to node %d of %d", src, dst, len(n.connCount))
			}
			_ = n.connect(src, dst) // the budget was enforced when the run made the connection
		}
	}
	n.retries.Store(st.Retries)
	return nil
}

// Close shuts every inbox (used on teardown and error paths).
func (n *Network) Close() {
	for _, in := range n.inboxes {
		in.Close()
	}
}

// Abort tears the simulated job down after a node-level failure: inboxes
// close (blocked Recvs see EvError) and in-flight collectives wake with the
// abort flag set, so no peer hangs waiting for a crashed rank.
func (n *Network) Abort() {
	n.Close()
	n.coll.abort()
}

// Aborted reports whether Abort was called.
func (n *Network) Aborted() bool { return n.coll.aborted.Load() }
