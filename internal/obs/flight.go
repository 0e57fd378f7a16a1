package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Flight recording: an always-on, fixed-capacity black box of the
// simulated machine. Every node owns a ring buffer of structured events
// (sends and receives with retry counts, chaos injections, duplicate
// drops, round windows, watchdog activity, straggler flags); when a run
// aborts — or an operator hits /debug/flight — the rings drain into a
// schema-versioned JSON dump that explains the moments leading up to the
// failure, which aggregate counters cannot.
//
// Determinism contract: events carry no host timestamps. Each delivery
// event is addressed by the same per-stream (level, wire, channel) op
// coordinate system the chaos injector uses — every stream has a single
// writer goroutine, so op numbering is a pure function of the run — and
// Dump sorts events into a canonical order before assigning sequence
// numbers. Two runs of the same seed and configuration therefore produce
// byte-identical dumps, provided no ring overflowed (Dropped == 0) and
// straggler detection is off (straggler events embed host-side timings).
//
// See docs/OBSERVABILITY.md ("Flight recorder & post-mortems").

// FlightSchemaVersion stamps every dump; readers reject versions they do
// not understand.
const FlightSchemaVersion = 1

// DefaultFlightCapacity is the per-node ring capacity (events). When a
// ring overflows, the oldest events are discarded and the dump's Dropped
// count reports how many.
const DefaultFlightCapacity = 4096

// Flight event kinds.
const (
	// FlightRunStart opens a run (machine-level; meta in Detail).
	FlightRunStart = "run-start"
	// FlightWatchdogArm records that the level/round watchdog is armed.
	FlightWatchdogArm = "watchdog-arm"
	// FlightRoundOpen and FlightRoundClose bracket one BFS level or
	// algorithm round (machine-level, recorded by node 0).
	FlightRoundOpen  = "round-open"
	FlightRoundClose = "round-close"
	// FlightInject records one chaos fault firing (Fault holds the spec).
	FlightInject = "inject"
	// FlightSend is one logical batch delivery by Node to Peer. Retries
	// counts the transient failures the transport absorbed for it; Fault
	// names the chaos fault that struck it, if any.
	FlightSend = "send"
	// FlightRecv is one batch received by Node from Peer.
	FlightRecv = "recv"
	// FlightDupDrop is a chaos-duplicated delivery discarded by Node.
	FlightDupDrop = "dup-drop"
	// FlightStraggler flags Node as a straggler for Level (host timings in
	// Detail — nondeterministic by nature).
	FlightStraggler = "straggler"
	// FlightWatchdogFire records the watchdog tearing the run down.
	FlightWatchdogFire = "watchdog-fire"
	// FlightAbort closes an aborted run with its cause.
	FlightAbort = "abort"
)

// flightKindRank orders event kinds within one (run, level, node) group of
// the canonical dump order: lifecycle events frame the traffic.
var flightKindRank = map[string]int{
	FlightRunStart:     0,
	FlightWatchdogArm:  1,
	FlightRoundOpen:    2,
	FlightInject:       3,
	FlightSend:         4,
	FlightRecv:         5,
	FlightDupDrop:      6,
	FlightStraggler:    7,
	FlightRoundClose:   8,
	FlightWatchdogFire: 9,
	FlightAbort:        10,
}

// FlightEvent is one recorded event. Node -1 marks machine-level events
// that belong to no single rank (run lifecycle, round windows, watchdog).
type FlightEvent struct {
	// Seq is the event's position in the canonical dump order (assigned by
	// Dump, not at record time — ring interleaving across nodes is
	// scheduling noise the canonical order erases).
	Seq int `json:"seq"`
	// Run indexes the dump's Runs metadata.
	Run  int    `json:"run"`
	Node int    `json:"node"`
	Kind string `json:"kind"`
	// Level is the BFS level or algorithm round (-1 for run-scoped events).
	Level int `json:"level"`

	// Delivery coordinates (send/recv/dup-drop): the wire kind and channel
	// of the batch, the remote rank (destination for sends, source for
	// receives), and the per-stream op ordinal — the chaos coordinate
	// system, so a fault spec points straight at its event.
	Wire    string `json:"wire,omitempty"`
	Channel string `json:"channel,omitempty"`
	Peer    int    `json:"peer"`
	Op      int    `json:"op"`

	// End marks a batch that also carries its sender's end-of-channel
	// marker (end on a data batch, relay-end on a relay envelope). The
	// delivery took the next op of that marker's stream too, so a fault
	// addressed to either op names this event. A flag, not the marker's
	// wire name: every event in every ring pays for the field.
	End bool `json:"end,omitempty"`
	// Pairs is the batch payload (vertex pairs, relay envelopes included).
	Pairs int `json:"pairs,omitempty"`
	// Retries counts transient delivery failures absorbed for this send.
	Retries int `json:"retries,omitempty"`
	// Fault is the chaos fault spec that struck this event, if any.
	Fault string `json:"fault,omitempty"`
	// Detail carries kind-specific context (run meta, round statistics,
	// abort causes).
	Detail string `json:"detail,omitempty"`
}

// FlightRunMeta identifies one recorded run.
type FlightRunMeta struct {
	Run       int    `json:"run"`
	Root      int64  `json:"root"`
	Kernel    string `json:"kernel"`
	Nodes     int    `json:"nodes"`
	Transport string `json:"transport"`
}

// FlightDump is the schema-versioned export of a recorder's contents.
type FlightDump struct {
	Schema int             `json:"schema"`
	Runs   []FlightRunMeta `json:"runs"`
	// Dropped counts events lost to ring overflow (oldest first). A
	// nonzero value voids the byte-identity guarantee: which events
	// survived depends on cross-stream arrival order.
	Dropped int64         `json:"dropped_events"`
	Events  []FlightEvent `json:"events"`
	// Aborted and Cause are stamped by the post-mortem path when the dump
	// was taken because a run tore down.
	Aborted bool   `json:"aborted,omitempty"`
	Cause   string `json:"cause,omitempty"`
}

// flightOp is one delivery stream's op counter, stamped with the level it
// is counting. A stream is (wire, channel) on the send side and (wire,
// channel, source) on the receive side, each with one writer goroutine.
//
// Invariant: a stream records no event of level L after one of level L+1 —
// a node's module goroutines join before the next level's first collective
// (runBFS, nodeRun.loop). The one late event the transport produces, the
// second copy of a duplicated End dropped by the next level's first Recv,
// is the first on its stream since its own level, so it finds its counter.
// A stream that does run backwards gets ErrFlightLevelOrder, not a
// restarted counter.
type flightOp struct {
	level, next int32
}

// ErrFlightLevelOrder reports a delivery event behind its stream's level.
var ErrFlightLevelOrder = errors.New("obs: flight event out of level order")

// flightRing is one node's event ring plus its per-run op counters. Each
// ring has its own mutex, so nodes never contend with each other on the
// hot record path.
type flightRing struct {
	mu    sync.Mutex
	buf   []FlightEvent
	next  int   // write cursor once the ring is full
	total int64 // events ever recorded (total - len(buf) were dropped)
	// ops is the dense stream table: slot ((peer+1)*wires + wire)*channels
	// + channel, peer -1 for the send streams. Cleared when a run opens.
	ops []flightOp
	// whole says buf is allocated at full capacity by the ring's first
	// event instead of growing by append (AllocateWhole).
	whole bool
}

// slot claims the ring's next event, overwriting the oldest once full, for
// the caller (who holds rg.mu) to fill in place.
func (rg *flightRing) slot(capacity int) *FlightEvent {
	rg.total++
	if len(rg.buf) < capacity {
		if rg.whole && rg.buf == nil {
			rg.buf = make([]FlightEvent, 0, capacity)
		}
		rg.buf = append(rg.buf, FlightEvent{})
		return &rg.buf[len(rg.buf)-1]
	}
	ev := &rg.buf[rg.next]
	if rg.next++; rg.next == capacity {
		rg.next = 0
	}
	return ev
}

// nextOp returns and advances the op counter of the stream in slot (of
// slots in all); false when level lies behind its stamp. Caller holds rg.mu.
func (rg *flightRing) nextOp(slot, slots, level int) (int, bool) {
	if slot >= len(rg.ops) {
		rg.ops = append(rg.ops, make([]flightOp, slots-len(rg.ops))...)
	}
	c := &rg.ops[slot]
	if int32(level) < c.level {
		return 0, false
	}
	if int32(level) > c.level {
		*c = flightOp{level: int32(level)}
	}
	c.next++
	return int(c.next - 1), true
}

// flightTable is what the record path needs of the recorder, published as
// one immutable value so an event costs an atomic load, not a lock.
type flightTable struct {
	rings []*flightRing // rings[0] = machine, rings[node+1] = node
	run   int
	// wires and channels name the integer codes of delivery events.
	wires, channels []string
}

// FlightRecorder is the machine's black box: one ring per node plus a
// machine ring (index 0) for lifecycle and chaos events. All methods are
// safe for concurrent use and tolerate a nil receiver at zero cost.
type FlightRecorder struct {
	capacity int
	table    atomic.Pointer[flightTable]

	mu   sync.Mutex // serializes table swaps and guards runs and whole
	runs []FlightRunMeta
	// whole marks every ring the recorder makes as allocated whole
	// (AllocateWhole).
	whole bool
}

// NewFlightRecorder builds a recorder with the given per-node ring
// capacity (0 selects DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	fr := &FlightRecorder{capacity: capacity}
	fr.table.Store(&flightTable{rings: []*flightRing{{}}})
	return fr
}

// SetStreamNames registers the names delivery events are stored under:
// Send, Recv and DupDrop take wire kind and channel as indices into them, so
// the record path neither hashes nor compares a string. The tables size the
// op-counter layout: register them before the first delivery event.
func (fr *FlightRecorder) SetStreamNames(wires, channels []string) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	t := *fr.table.Load()
	t.wires, t.channels = wires, channels
	fr.table.Store(&t)
}

// BeginRun opens a new run: ring contents are retained (the black box
// spans runs) but every per-stream op counter resets, and subsequent
// events are stamped with the new run index.
func (fr *FlightRecorder) BeginRun(root int64, kernel string, nodes int, transport string) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	t := fr.grown(nodes + 1) // node indices 0..nodes-1 → rings 1..nodes
	t.run = len(fr.runs)
	fr.runs = append(fr.runs, FlightRunMeta{
		Run: t.run, Root: root, Kernel: kernel, Nodes: nodes, Transport: transport,
	})
	fr.table.Store(t)
	fr.mu.Unlock()
	for _, rg := range t.rings {
		rg.mu.Lock()
		clear(rg.ops)
		rg.mu.Unlock()
	}
	fr.Control(FlightRunStart, -1, -1, fmt.Sprintf("root=%d kernel=%s transport=%s nodes=%d",
		root, kernel, transport, nodes))
}

// grown returns a copy of the current table with at least n rings. Caller
// holds fr.mu and publishes the copy.
func (fr *FlightRecorder) grown(n int) *flightTable {
	t := *fr.table.Load()
	t.rings = slices.Clone(t.rings)
	for len(t.rings) < n {
		t.rings = append(t.rings, &flightRing{whole: fr.whole})
	}
	return &t
}

// AllocateWhole has every ring of the recorder allocated at full capacity
// by its first event, so recording never grows one: a recorder that serves
// many runs pays for each ring once, in the first run, rather than by
// doubling inside whichever later run first fills it. Call it before the
// first event.
func (fr *FlightRecorder) AllocateWhole() {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.whole = true
	for _, rg := range fr.table.Load().rings {
		rg.mu.Lock()
		rg.whole = true
		rg.mu.Unlock()
	}
}

// ring returns the ring for a node index (-1 = machine) and the table it
// came from, growing the table if a node was never announced via BeginRun.
func (fr *FlightRecorder) ring(node int) (*flightRing, *flightTable) {
	idx := max(node+1, 0)
	t := fr.table.Load()
	if idx >= len(t.rings) {
		fr.mu.Lock()
		t = fr.grown(idx + 1)
		fr.table.Store(t)
		fr.mu.Unlock()
	}
	return t.rings[idx], t
}

// NoEnd is the end code of a delivery that carries no end-of-channel
// marker.
const NoEnd = -1

// Send records one logical batch delivery by node. The op ordinal comes
// from the node's (level, wire, channel) send-stream counter — the same
// coordinate the chaos grammar addresses, so `fault` (when set) names
// exactly this event. end is the wire code of the end-of-channel marker the
// batch carries, whose stream's next op the delivery consumes too, or
// NoEnd. The error is ErrFlightLevelOrder (see flightOp).
func (fr *FlightRecorder) Send(node, peer, level, pairs, retries int, wire, channel uint8, end int, fault string) error {
	return fr.delivery(FlightSend, node, peer, -1, level, pairs, retries, wire, channel, end, fault)
}

// Recv records one batch received by node from peer. The op ordinal comes
// from the node's (level, wire, channel, peer) receive-stream counter:
// per-source delivery order is FIFO, so the numbering is deterministic
// even though arrivals from different sources interleave freely. end is
// as for Send.
func (fr *FlightRecorder) Recv(node, peer, level, pairs int, wire, channel uint8, end int) error {
	return fr.delivery(FlightRecv, node, peer, peer, level, pairs, 0, wire, channel, end, "")
}

// DupDrop records node discarding a chaos-duplicated delivery from peer,
// numbered on the same receive stream as Recv.
func (fr *FlightRecorder) DupDrop(node, peer, level, pairs int, wire, channel uint8, end int) error {
	return fr.delivery(FlightDupDrop, node, peer, peer, level, pairs, 0, wire, channel, end, "")
}

// codeName resolves a registered code; an unregistered one (a hostile
// batch's) is spelled the way the transport's own String methods do.
func codeName(names []string, code uint8, what string) string {
	if int(code) < len(names) {
		return names[code]
	}
	return fmt.Sprintf("%s(%d)", what, code)
}

// delivery appends one delivery event to the node's ring, numbered by the
// next op of its stream (streamPeer -1: a send stream); a carried end
// marker (end != NoEnd) takes the next op of its own stream as well. An
// event whose codes or peer lie outside the tables is still recorded, as op
// 0 of no stream.
func (fr *FlightRecorder) delivery(kind string, node, peer, streamPeer, level, pairs, retries int, wire, channel uint8, end int, fault string) error {
	if fr == nil {
		return nil
	}
	rg, t := fr.ring(node)
	wireName, channelName := codeName(t.wires, wire, "kind"), codeName(t.channels, channel, "channel")
	slot := t.streamSlot(streamPeer, int(wire), channel)
	endSlot := -1
	if end != NoEnd {
		endSlot = t.streamSlot(streamPeer, end, channel)
	}
	slots := len(t.rings) * len(t.wires) * len(t.channels)
	rg.mu.Lock()
	op, behind := 0, -1
	if slot >= 0 {
		var ok bool
		if op, ok = rg.nextOp(slot, slots, level); !ok {
			behind = slot
		}
	}
	if endSlot >= 0 && behind < 0 {
		if _, ok := rg.nextOp(endSlot, slots, level); !ok {
			behind = endSlot
		}
	}
	if behind >= 0 {
		stamp := rg.ops[behind].level
		rg.mu.Unlock()
		return fmt.Errorf("%w: node %d recorded a level-%d %s on %s/%s from %d after level %d",
			ErrFlightLevelOrder, node, level, kind, wireName, channelName, peer, stamp)
	}
	// Field by field: a composite literal would be built on the stack and
	// copied in under a bulk write barrier.
	ev := rg.slot(fr.capacity)
	ev.Seq, ev.Run, ev.Node, ev.Kind, ev.Level = 0, t.run, node, kind, level
	ev.Wire, ev.Channel, ev.Peer, ev.Op = wireName, channelName, peer, op
	ev.End, ev.Pairs, ev.Retries, ev.Fault, ev.Detail = end != NoEnd, pairs, retries, fault, ""
	rg.mu.Unlock()
	return nil
}

// streamSlot returns the op-table slot of a delivery stream (peer -1: a
// send stream), or -1 when a code or the peer lies outside the tables.
func (t *flightTable) streamSlot(peer, wire int, channel uint8) int {
	if wire < 0 || wire >= len(t.wires) || int(channel) >= len(t.channels) || peer < -1 || peer+1 >= len(t.rings) {
		return -1
	}
	return ((peer+1)*len(t.wires)+wire)*len(t.channels) + int(channel)
}

// Inject records one chaos fault firing. The event lands in the machine
// ring — low-volume, so injections survive even when a node's delivery
// ring has wrapped — but carries the struck node for the timeline.
func (fr *FlightRecorder) Inject(node, level int, fault string) {
	fr.machine(FlightEvent{Node: node, Kind: FlightInject, Level: level, Peer: -1, Fault: fault})
}

// Control records a lifecycle event (round windows, watchdog activity,
// straggler flags, aborts) in the machine ring.
func (fr *FlightRecorder) Control(kind string, node, level int, detail string) {
	fr.machine(FlightEvent{Node: node, Kind: kind, Level: level, Peer: -1, Detail: detail})
}

func (fr *FlightRecorder) machine(ev FlightEvent) {
	if fr == nil {
		return
	}
	rg, t := fr.ring(-1)
	ev.Run = t.run
	rg.mu.Lock()
	*rg.slot(fr.capacity) = ev
	rg.mu.Unlock()
}

// TotalDropped reports how many events have been lost to ring overflow.
func (fr *FlightRecorder) TotalDropped() int64 {
	if fr == nil {
		return 0
	}
	var dropped int64
	for _, rg := range fr.table.Load().rings {
		rg.mu.Lock()
		dropped += rg.total - int64(len(rg.buf))
		rg.mu.Unlock()
	}
	return dropped
}

// Dump snapshots the recorder into a canonical, schema-versioned export.
// It is non-destructive: recording continues and a later Dump sees the
// same events again (plus newer ones). Events are sorted into the
// canonical order — (run, level, node, kind, wire, channel, peer, op) —
// and sequence numbers assigned, so identical event sets serialize to
// identical bytes regardless of host scheduling.
func (fr *FlightRecorder) Dump() *FlightDump {
	d := &FlightDump{Schema: FlightSchemaVersion}
	if fr == nil {
		return d
	}
	fr.mu.Lock()
	rings := fr.table.Load().rings
	d.Runs = append([]FlightRunMeta(nil), fr.runs...)
	fr.mu.Unlock()

	for _, rg := range rings {
		rg.mu.Lock()
		d.Events = append(d.Events, rg.buf...)
		d.Dropped += rg.total - int64(len(rg.buf))
		rg.mu.Unlock()
	}
	sort.Slice(d.Events, func(i, j int) bool {
		return flightEventLess(&d.Events[i], &d.Events[j])
	})
	for i := range d.Events {
		d.Events[i].Seq = i
	}
	return d
}

// flightEventLess is the canonical flight-event order — (run, level, node,
// kind, wire, channel, peer, op) — shared by Dump and CaptureState.
func flightEventLess(a, b *FlightEvent) bool {
	if a.Run != b.Run {
		return a.Run < b.Run
	}
	if a.Level != b.Level {
		return a.Level < b.Level
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	ra, rb := flightKindRank[a.Kind], flightKindRank[b.Kind]
	if ra != rb {
		return ra < rb
	}
	if a.Wire != b.Wire {
		return a.Wire < b.Wire
	}
	if a.Channel != b.Channel {
		return a.Channel < b.Channel
	}
	if a.Peer != b.Peer {
		return a.Peer < b.Peer
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	if a.Fault != b.Fault {
		return a.Fault < b.Fault
	}
	return a.Detail < b.Detail
}

// FlightRingState is one ring's serialized contents.
type FlightRingState struct {
	// Events hold the surviving ring contents in the canonical order (ring
	// insertion order interleaves per host scheduling; sorting at capture
	// keeps checkpoint bytes deterministic). Seq is not meaningful here —
	// Dump reassigns it after a restore.
	Events []FlightEvent `json:"events"`
	// Total is the ring's lifetime event count (total - len(events) were
	// dropped to overflow).
	Total int64 `json:"total"`
}

// FlightState is the recorder's checkpointable state: ring contents plus
// run metadata. Per-stream op counters are intentionally absent — they are
// keyed by level, completed levels never record again after a resume, and
// the resumed level's streams restart from op 0 exactly as the original
// run's did.
type FlightState struct {
	Runs  []FlightRunMeta   `json:"runs"`
	Run   int               `json:"run"`
	Rings []FlightRingState `json:"rings"`
}

// CaptureState snapshots the recorder for a checkpoint. Safe to call
// concurrently with recording; the caller is responsible for quiescing the
// machine first if it needs a consistent cut (the runner captures at level
// barriers, where no traffic is in flight).
func (fr *FlightRecorder) CaptureState() *FlightState {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	t := fr.table.Load()
	st := &FlightState{
		Runs: append([]FlightRunMeta(nil), fr.runs...),
		Run:  t.run,
	}
	fr.mu.Unlock()
	for _, rg := range t.rings {
		rg.mu.Lock()
		rs := FlightRingState{
			Events: append([]FlightEvent(nil), rg.buf...),
			Total:  rg.total,
		}
		rg.mu.Unlock()
		sort.Slice(rs.Events, func(i, j int) bool {
			return flightEventLess(&rs.Events[i], &rs.Events[j])
		})
		st.Rings = append(st.Rings, rs)
	}
	return st
}

// RestoreState loads a captured state into the recorder, replacing its
// contents. The resume path calls it instead of BeginRun, so the run index
// and ring history continue exactly where the checkpoint left them. If the
// recorder's capacity is smaller than a restored ring, the newest events
// are kept (matching ring-overflow semantics).
func (fr *FlightRecorder) RestoreState(st *FlightState) {
	if fr == nil || st == nil {
		return
	}
	fr.mu.Lock()
	fr.runs = append([]FlightRunMeta(nil), st.Runs...)
	old := fr.table.Load()
	t := &flightTable{run: st.Run, wires: old.wires, channels: old.channels}
	for i := 0; i < max(len(st.Rings), 1); i++ {
		rg := &flightRing{whole: fr.whole}
		if i < len(st.Rings) {
			events := st.Rings[i].Events
			if len(events) > fr.capacity {
				events = events[len(events)-fr.capacity:]
			}
			rg.buf = append(rg.buf, events...)
			rg.total = st.Rings[i].Total
		}
		t.rings = append(t.rings, rg)
	}
	fr.table.Store(t)
	fr.mu.Unlock()
}

// WriteFlightDump serializes a dump as indented JSON — the byte-stable
// format the determinism tests compare and /debug/flight serves.
func WriteFlightDump(w io.Writer, d *FlightDump) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("obs: encoding flight dump: %w", err)
	}
	return nil
}

// WriteFlightDumpFile writes a dump to path (the -flight-dump flags and
// the abort post-mortem path).
func WriteFlightDumpFile(path string, d *FlightDump) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: writing flight dump: %w", err)
	}
	if err := WriteFlightDump(f, d); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: writing flight dump: %w", err)
	}
	return nil
}

// ReadFlightDump parses a dump and validates its schema version.
func ReadFlightDump(r io.Reader) (*FlightDump, error) {
	var d FlightDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("obs: decoding flight dump: %w", err)
	}
	if d.Schema != FlightSchemaVersion {
		return nil, fmt.Errorf("obs: flight dump schema %d, this build reads %d", d.Schema, FlightSchemaVersion)
	}
	return &d, nil
}
