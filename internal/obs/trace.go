package obs

import (
	"fmt"
	"math"
	"sync"
)

// LevelSpan is one BFS level of a traced run: what the traversal did
// (direction, frontier, relaxed edges), how long the model says it took,
// and where its traffic went, split by fat-tree link class.
type LevelSpan struct {
	Level     int    `json:"level"`
	Direction string `json:"direction"`

	// FrontierVertices is the global frontier size entering the level
	// (nf); EdgesRelaxed is the frontier's degree sum (mf) — the work the
	// level relaxes.
	FrontierVertices int64 `json:"frontier_vertices"`
	EdgesRelaxed     int64 `json:"edges_relaxed"`

	// WallSeconds is the modelled wall-clock time of the level; the spans
	// of a run sum exactly to the run's reported kernel time.
	WallSeconds float64 `json:"wall_seconds"`
	// Rounds is the number of sequential message stages (1 direct,
	// 2 relay, doubled bottom-up).
	Rounds int `json:"rounds"`

	// Point-to-point bytes per link class.
	LoopbackBytes   int64 `json:"loopback_bytes"`
	IntraSuperBytes int64 `json:"intra_super_bytes"`
	InterSuperBytes int64 `json:"inter_super_bytes"`
	// Collective traffic (allreduce/allgather), total and the share that
	// actually crossed a wire (excludes the loopback share on scaled-down
	// topologies and single-node runs).
	CollectiveBytes     int64 `json:"collective_bytes"`
	CollectiveWireBytes int64 `json:"collective_wire_bytes"`
	CollectiveOps       int64 `json:"collective_ops"`

	// NetworkBytes is everything that crossed a wire this level:
	// IntraSuperBytes + InterSuperBytes + CollectiveWireBytes.
	NetworkBytes int64 `json:"network_bytes"`
	// NetworkMessages counts point-to-point wire messages.
	NetworkMessages int64 `json:"network_messages"`

	// Critical-path statistics (machine-wide maxima over nodes).
	MaxNodeProcessedBytes int64 `json:"max_node_processed_bytes"`
	MaxNodeSentBytes      int64 `json:"max_node_sent_bytes"`
}

// RunTrace is the full timeline of one rooted BFS.
type RunTrace struct {
	Root           int64       `json:"root"`
	Visited        int64       `json:"visited"`
	TraversedEdges int64       `json:"traversed_edges"`
	BottomUpLevels int         `json:"bottomup_levels"`
	Levels         []LevelSpan `json:"levels"`

	// TotalSeconds and GTEPS are the run's reported results; TotalSeconds
	// equals the sum of the spans' WallSeconds.
	TotalSeconds float64 `json:"total_seconds"`
	GTEPS        float64 `json:"gteps"`

	// Termination traffic: the frontier-emptiness collectives of the
	// final loop iteration, which belong to no level.
	TerminationCollectiveBytes int64 `json:"termination_collective_bytes"`
	TerminationWireBytes       int64 `json:"termination_wire_bytes"`

	// TotalNetworkBytes is the run's grand total of wire bytes, as
	// reported by the fabric counters. It equals the sum of the spans'
	// NetworkBytes plus TerminationWireBytes.
	TotalNetworkBytes int64 `json:"total_network_bytes"`

	// CodecTraffic breaks the run's payload-encoded traffic down per wire
	// format ("raw", "varint-delta", "bitmap"): how many data payloads
	// each format carried and their encoded bytes. Empty (and omitted)
	// when the run had no payload codec on the transport.
	CodecTraffic []CodecFormatTraffic `json:"codec_traffic,omitempty"`

	// Spans, Flows and Stragglers place the run's module work on its
	// modelled timeline: every node's module spans of every level, the
	// relay transport's hops between them and the straggler detector's
	// flags. WriteChromeTrace renders them; a trace diff compares spans. A
	// resumed run's flows and stragglers cover only the levels it ran.
	Spans      []ModuleSpan    `json:"spans,omitempty"`
	Flows      []FlowLink      `json:"flows,omitempty"`
	Stragglers []StragglerFlag `json:"stragglers,omitempty"`
}

// Module track names of the pipelined module mapping (Figure 10). The
// generator track carries Forward Generator spans on top-down levels and
// Backward Generator spans on bottom-up levels; the relay track carries the
// Forward/Backward Relay duties the node performs for its group.
const (
	ModuleForwardGenerator  = "Forward Generator"
	ModuleBackwardGenerator = "Backward Generator"
	ModuleForwardHandler    = "Forward Handler"
	ModuleBackwardHandler   = "Backward Handler"
	ModuleRelay             = "Relay"
)

// ModuleSpan is one module's work during one level on one simulated node,
// placed on the run's modelled timeline (seconds from run start).
type ModuleSpan struct {
	Node   int     `json:"node"`
	Module string  `json:"module"`
	Level  int     `json:"level"`
	Start  float64 `json:"start_seconds"`
	Dur    float64 `json:"duration_seconds"`
	Bytes  int64   `json:"bytes"`
	// Workers is the host worker-pool width that executed the module's hot
	// loop (0 when unattributed or serial): the lanes of the module's CPE
	// cluster the simulation actually emulated.
	Workers int `json:"workers,omitempty"`
}

// FlowStage distinguishes the two hops of the relay transport.
type FlowStage int

const (
	// FlowStageOne is the generator→relay hop (the batched envelope to the
	// destination group's relay in the sender's column).
	FlowStageOne FlowStage = 1
	// FlowStageTwo is the relay→handler hop (the shuffled per-destination
	// batch forwarded within the relay's row).
	FlowStageTwo FlowStage = 2
)

// FlowLink is the aggregated data flow between two module spans of one
// level: the pair bytes of every batch a node shipped to a given peer on a
// given channel and stage, summed. The Chrome export renders each link as
// a flow arrow from the source module's span to the destination module's
// span.
type FlowLink struct {
	Level   int       `json:"level"`
	Channel string    `json:"channel"`
	Stage   FlowStage `json:"stage"`
	From    int       `json:"from"`
	To      int       `json:"to"`
	Bytes   int64     `json:"bytes"`
}

// StragglerFlag marks one node whose host-side level makespan exceeded
// the all-node mean by the configured factor (core.Config.StragglerFactor)
// — the load-imbalance signal distributed BFS work treats as the
// first-order scaling hazard. Start places the flag at the level's start
// on the run's modelled timeline.
type StragglerFlag struct {
	Node            int     `json:"node"`
	Level           int     `json:"level"`
	HostSeconds     float64 `json:"host_seconds"`
	MeanHostSeconds float64 `json:"mean_host_seconds"`
	Start           float64 `json:"start_seconds"`
}

// CodecFormatTraffic is one wire format's share of a run's encoded
// payload traffic.
type CodecFormatTraffic struct {
	Format   string `json:"format"`
	Messages int64  `json:"messages"`
	Bytes    int64  `json:"bytes"`
}

// Reconcile verifies the trace's books balance: summed level wall times
// match TotalSeconds, summed level byte counts (plus termination traffic)
// match TotalNetworkBytes, and every relay node passes on what it
// receives (reconcileRelays). A non-nil error means the trace was
// assembled inconsistently — it is used by tests and by -trace-out
// consumers as an integrity check.
func (t *RunTrace) Reconcile() error {
	var secs float64
	var bytes int64
	for _, s := range t.Levels {
		secs += s.WallSeconds
		bytes += s.NetworkBytes
	}
	if diff := math.Abs(secs - t.TotalSeconds); diff > 1e-9*(1+math.Abs(t.TotalSeconds)) {
		return fmt.Errorf("obs: level times sum to %.9gs, run reports %.9gs", secs, t.TotalSeconds)
	}
	if got := bytes + t.TerminationWireBytes; got != t.TotalNetworkBytes {
		return fmt.Errorf("obs: level bytes sum to %d (+%d termination), run reports %d",
			bytes, t.TerminationWireBytes, t.TotalNetworkBytes)
	}
	return t.reconcileRelays()
}

// reconcileRelays balances the relay books: on every level the flows
// cover, each relay node's stage-one bytes in, stage-two bytes out and
// Relay span bytes are one number. Levels without flows — a direct run's,
// or those a resumed run inherited from its checkpoint — are not checked.
func (t *RunTrace) reconcileRelays() error {
	type cell struct{ level, node int }
	books := map[cell][3]int64{} // stage one in, stage two out, Relay span
	var cells []cell             // in record order, so the first mismatch reported is too
	tally := func(c cell, i int, b int64) {
		v, seen := books[c]
		if !seen {
			cells = append(cells, c)
		}
		v[i] += b
		books[c] = v
	}
	flowed := map[int]bool{}
	for _, f := range t.Flows {
		flowed[f.Level] = true
		c, i := cell{f.Level, f.To}, 0
		if f.Stage == FlowStageTwo {
			c, i = cell{f.Level, f.From}, 1
		}
		tally(c, i, f.Bytes)
	}
	for _, sp := range t.Spans {
		if sp.Module == ModuleRelay && flowed[sp.Level] {
			tally(cell{sp.Level, sp.Node}, 2, sp.Bytes)
		}
	}
	for _, c := range cells {
		if b := books[c]; b[0] != b[1] || b[1] != b[2] {
			return fmt.Errorf("obs: level %d relay node %d: stage one brings %d bytes, stage two ships %d, its Relay span holds %d",
				c.level, c.node, b[0], b[1], b[2])
		}
	}
	return nil
}

// TraceRecorder collects RunTraces; safe for concurrent Record calls.
type TraceRecorder struct {
	mu   sync.Mutex
	runs []RunTrace
}

// NewTraceRecorder returns an empty recorder.
func NewTraceRecorder() *TraceRecorder { return &TraceRecorder{} }

// Record appends one run's trace.
func (r *TraceRecorder) Record(t RunTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs = append(r.runs, t)
}

// Runs returns a copy of the recorded traces in recording order.
func (r *TraceRecorder) Runs() []RunTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RunTrace, len(r.runs))
	copy(out, r.runs)
	return out
}

// Len returns the number of recorded runs.
func (r *TraceRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.runs)
}
