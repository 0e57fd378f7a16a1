// Package perf is the timing layer of the simulation: it folds the traffic
// and work counters measured during a functional BFS run into per-level
// times using the calibrated machine curves from internal/sw and
// internal/fabric, and computes the GTEPS figures the evaluation section
// reports.
//
// Absolute times are a model, not the authors' testbed; what the model is
// built to preserve are the paper's relative effects: CPE-cluster module
// processing ~10x faster than MPE processing, per-message software overhead
// throttling direct all-to-all messaging as the node count grows, the 1:4
// oversubscribed central network, and the latency floor that flattens weak
// scaling for small per-node problem sizes.
package perf

import (
	"fmt"

	"swbfs/internal/fabric"
	"swbfs/internal/shuffle"
	"swbfs/internal/sw"
)

// Engine says where a node's module work executes.
type Engine int

const (
	// EngineMPE processes modules on the management core ("Direct MPE" /
	// "Relay MPE" in Figure 11).
	EngineMPE Engine = iota
	// EngineCPE processes modules with the contention-free CPE-cluster
	// shuffle.
	EngineCPE
)

func (e Engine) String() string {
	if e == EngineCPE {
		return "CPE"
	}
	return "MPE"
}

// Bandwidth returns the module-processing bandwidth (bytes/second of module
// input shuffled, written and dispatched) of the engine.
//
// The CPE rate is the contention-free shuffle model (~10 GB/s, Section
// 4.3). The MPE rate reflects unbatched record-at-a-time processing on the
// management core: scattered 16-byte reads and writes at the MPE's small-
// chunk memory curve, which lands near a tenth of the CPE rate — producing
// the paper's "properly used CPE clusters can improve performance by a
// factor of 10".
func (e Engine) Bandwidth() float64 {
	if e == EngineCPE {
		return shuffle.ModelBandwidth(shuffle.DefaultLayout())
	}
	return shuffle.RecordBytes / mpePerRecordSeconds
}

// mpePerRecordSeconds is the modelled cost of the MPE handling one 16-byte
// record (read, destination dispatch, buffered write): ~23 cycles at
// 1.45 GHz, between a cache hit and a full memory round trip. Calibrated so
// the CPE-cluster shuffle outruns MPE processing by the paper's measured
// factor of ~10 (Section 6.1).
const mpePerRecordSeconds = 16e-9

// Per-message software cost on the MPE that posts and completes MPI
// operations. This is the term that makes Theta(P) small messages per node
// per level the scaling killer the paper describes: on the direct
// transport every node messages every peer in every level — its last
// batch to a peer carries the End marker, a peer with nothing left gets a
// bare one — so a level costs at least P-1 messages per node however
// little data it moves.
const PerMessageOverheadSeconds = 2e-6

// LevelStats is what the functional BFS engine measures for one level on
// one transport+engine configuration.
type LevelStats struct {
	Level     int
	Direction string // "topdown" or "bottomup"

	// FrontierVertices is the global frontier size entering the level
	// (nf) and FrontierEdges its degree sum (mf) — the runtime statistics
	// TRAVERSAL_POLICY consumes, kept for tracing. Neither enters the
	// timing model.
	FrontierVertices int64
	FrontierEdges    int64

	// MaxNodeProcessedBytes is the largest per-node module input volume
	// (generator reads + handler updates) — the compute critical path.
	MaxNodeProcessedBytes int64
	// ModuleBytes optionally splits the critical node's work per module
	// (generator, forward handler, backward handler, relay). When present
	// and the engine is the CPE clusters, the compute term uses the
	// pipelined-module-mapping scheduler (FCFS over 4 clusters with MPE
	// fallback) instead of a single serial stream.
	ModuleBytes []int64
	// MaxNodeSentBytes is the largest per-node injection volume.
	MaxNodeSentBytes int64
	// MaxNodeMessages is the largest per-node count of network messages
	// sent: data batches, some carrying a termination marker, plus the
	// bare markers to peers no data batch reached at channel close.
	MaxNodeMessages int64
	// ModuleInvocations is the largest per-node number of module
	// dispatches (each paying the flag-polling notification latency when
	// run on CPE clusters).
	ModuleInvocations int64

	// Net is the network traffic delta of the level.
	Net fabric.Snapshot

	// Rounds is the number of sequential message stages: 1 for direct
	// transport, 2 for relay (stage one + stage two).
	Rounds int
}

// Model folds LevelStats into seconds.
type Model struct {
	Topo   fabric.Topology
	Engine Engine
}

// NewModel builds a model for the given topology and engine.
func NewModel(topo fabric.Topology, engine Engine) Model {
	return Model{Topo: topo, Engine: engine}
}

// Terms is one level's modelled time split into the terms of the model, in
// seconds. Compute and the network side (Injection + PerMessage, or Central
// when the shared central network is slower) overlap, so the larger bounds
// the level; the latency floor — StageLatency, CollectiveLatency and
// CollectiveBytes — adds on top.
type Terms struct {
	// Compute is the slowest node's module work through the engine, plus
	// its dispatch notifications on CPE clusters.
	Compute float64
	// Injection is the slowest node's sent bytes at the node bandwidth and
	// PerMessage its messages' software overhead on the MPE.
	Injection, PerMessage float64
	// Central is the level's inter-super-node bytes on the central network.
	Central float64
	// StageLatency is one wire latency per sequential message stage.
	StageLatency float64
	// CollectiveLatency is a tree of latencies per charged collective, and
	// CollectiveBytes the collectives' bytes on the central network.
	CollectiveLatency, CollectiveBytes float64
	// Bound names the side that bounds the level: BoundCompute,
	// BoundInjection (injection plus per-message overhead) or BoundCentral.
	Bound string
}

// The sides a level's time can be bound by (Terms.Bound).
const (
	BoundCompute   = "compute"
	BoundInjection = "injection"
	BoundCentral   = "central"
)

// Total returns the level's modelled seconds: the slower of compute and the
// network, plus the latency floor.
func (t Terms) Total() float64 {
	network := t.Injection + t.PerMessage
	if t.Central > network {
		network = t.Central
	}
	level := t.Compute
	if network > level {
		level = network
	}
	return level + (t.StageLatency + t.CollectiveLatency + t.CollectiveBytes)
}

// LevelTime returns the modelled wall-clock seconds of one BFS level.
func (m Model) LevelTime(s LevelStats) float64 { return m.Terms(s).Total() }

// Terms splits one level's modelled time into the model's terms.
func (m Model) Terms(s LevelStats) Terms {
	// Compute: the slowest node's module work, streamed through the
	// engine, plus dispatch notifications (CPE only — MPE work needs no
	// cluster hand-off). With a per-module split available, the CPE path
	// uses the pipelined module mapping: modules run concurrently on the
	// node's four CPE clusters (Figure 10) under the FCFS scheduler.
	var t Terms
	if m.Engine == EngineCPE && len(s.ModuleBytes) > 0 {
		t.Compute = sw.MakespanForBytes(s.ModuleBytes, EngineCPE.Bandwidth(), EngineMPE.Bandwidth())
		t.Compute += float64(s.ModuleInvocations) * sw.FlagNotifyLatencySeconds()
	} else {
		t.Compute = float64(s.MaxNodeProcessedBytes) / m.Engine.Bandwidth()
		if m.Engine == EngineCPE {
			t.Compute += float64(s.ModuleInvocations) * sw.FlagNotifyLatencySeconds()
		}
	}

	// Network: the slowest node's injection, the shared central network,
	// and the per-message software overhead on the MPE.
	t.Injection = float64(s.MaxNodeSentBytes) / fabric.EffectiveNodeBandwidth
	t.Central = float64(s.Net.Bytes[fabric.InterSuper]) / m.Topo.CentralBandwidth()
	t.PerMessage = float64(s.MaxNodeMessages) * PerMessageOverheadSeconds

	// Latency floor: each sequential message stage pays a wire latency;
	// collectives pay a tree of latencies.
	rounds := s.Rounds
	if rounds < 1 {
		rounds = 1
	}
	t.StageLatency = float64(rounds) * fabric.InterSuperLatency
	t.CollectiveLatency = float64(log2ceil(m.Topo.Nodes)) * fabric.IntraSuperLatency * float64(s.Net.CollectiveOps)
	t.CollectiveBytes = float64(s.Net.CollectiveBytes) / m.Topo.CentralBandwidth()

	// The pipelined module mapping overlaps computation with
	// communication ("data should be transmitted or processed as soon as
	// it is ready"), so the level takes the slower of the two plus the
	// unavoidable latency floor.
	switch network := t.Injection + t.PerMessage; {
	case t.Compute >= network && t.Compute >= t.Central:
		t.Bound = BoundCompute
	case t.Central > network:
		t.Bound = BoundCentral
	default:
		t.Bound = BoundInjection
	}
	return t
}

// TotalTime sums level times.
func (m Model) TotalTime(levels []LevelStats) float64 {
	var t float64
	for _, s := range levels {
		t += m.LevelTime(s)
	}
	return t
}

// TEPS returns traversed edges per second for a BFS that covered
// `edges` undirected edges over the given levels.
func (m Model) TEPS(edges int64, levels []LevelStats) float64 {
	t := m.TotalTime(levels)
	if t <= 0 {
		return 0
	}
	return float64(edges) / t
}

// GTEPS is TEPS / 1e9 — the Graph500 reporting unit.
func (m Model) GTEPS(edges int64, levels []LevelStats) float64 {
	return m.TEPS(edges, levels) / 1e9
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// String renders the model configuration.
func (m Model) String() string {
	return fmt.Sprintf("perf.Model{nodes=%d, super=%d, engine=%s}",
		m.Topo.Nodes, m.Topo.SuperSize, m.Engine)
}
