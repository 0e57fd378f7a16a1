package core

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/fabric"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// KernelBFS names the engine's native kernel in checkpoints and flight
// records. Its live events carry no kernel label (obs.LiveEvent.Kernel).
const KernelBFS = "bfs"

// ErrAborted is what a node's level body returns when it saw the job torn
// down by a peer's failure; Drive reports the peer's original error instead.
var ErrAborted = errors.New("core: run aborted by peer failure")

// ErrLevelTimeout reports that the per-level watchdog (Config.LevelTimeout)
// saw no level complete within the deadline and tore the run down.
var ErrLevelTimeout = errors.New("core: level watchdog timeout")

// AbortError is the partial-result report of a torn-down run: the original
// cause plus the per-level statistics of every level that fully completed
// before the abort. Unwrap exposes the cause, so errors.Is(err,
// ErrLevelTimeout) and errors.As(err, *comm.ErrNodeKilled) both see
// through it.
type AbortError struct {
	Root            graph.Vertex
	Cause           error
	CompletedLevels []perf.LevelStats

	// FlightDump is the flight recorder's post-mortem: every black-box
	// event leading up to the abort, in canonical order. FlightPath is
	// where the dump was written when Config.FlightDump asked for a file
	// ("" otherwise). Render with cmd/inspect.
	FlightDump *obs.FlightDump
	FlightPath string

	// Injections is the sorted log of faults injected before the abort —
	// the counterpart of RunInfo.Injections for runs that never produce a
	// result, so flight.Reconcile works on post-mortems too.
	Injections []chaos.Fault

	// Checkpoint is the newest complete level-boundary checkpoint taken
	// before the abort (nil with Config.CheckpointEvery == 0 or when the
	// run died before its first boundary); CheckpointPath is where it was
	// written ("" when no write happened). Resume from it to finish the
	// run with a bitwise-identical result — see docs/CHAOS.md.
	Checkpoint     *ckpt.Checkpoint
	CheckpointPath string
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("core: run from root %d aborted after %d completed levels: %v",
		e.Root, len(e.CompletedLevels), e.Cause)
}

func (e *AbortError) Unwrap() error { return e.Cause }

// GraphDigestError refuses a resume onto a graph other than the one the
// checkpoint pins: File is the checkpoint's graph digest ("" when it pins
// none), Run the digest of the graph the run was handed.
type GraphDigestError struct {
	File, Run string
}

func (e *GraphDigestError) Error() string {
	if e.File == "" {
		return "core: checkpoint pins no graph (no graph_digest), so it cannot be resumed"
	}
	return fmt.Sprintf("core: checkpoint is for another graph: its digest is %s, this run's graph digests %s", e.File, e.Run)
}

// MachineSpec identifies one run to OpenMachine.
type MachineSpec struct {
	Cfg   Config
	Graph *graph.CSR
	// Weights are the edge weights of a weighted kernel (nil otherwise).
	// The graph digest a checkpoint pins covers them.
	Weights *graph.Weights
	// Digest is graph.Digest(Graph, Weights) when the caller already holds
	// it (a Runner keeps the first one for all its roots). Otherwise
	// OpenMachine computes it, and only for a run that can checkpoint or
	// resumes: a plain run never pays for it.
	Digest string
	// Kernel and Root are the run's identity in live events, the flight
	// record, checkpoints and AbortError (rootless kernels pass
	// graph.NoVertex).
	Kernel string
	Root   graph.Vertex
	// Args is the kernel's canonical argument string, recorded in every
	// checkpoint; a resume whose Args differ is refused (BFS leaves it "").
	Args string
	// Unit is what the kernel calls one pass of its loop ("level" or
	// "round"): the noun of watchdog and checkpoint messages.
	Unit string
	// Partition names the vertex layout for the checkpoint identity.
	Partition string
	// Flight is the black-box recorder; nil selects the observer's, else a
	// private one. A caller that runs many roots hands the same recorder in
	// so the run index advances.
	Flight *obs.FlightRecorder
	// Resume, when non-nil, reopens the machine at a checkpointed boundary.
	Resume *ckpt.Checkpoint
	// Shared declares the kernel's machine-wide checkpoint state, kept in
	// the checkpoint's machine record (BFS: "policy" and "hub_visited"; nil
	// for none). Node 0 captures it at every boundary; a resume checks and
	// loads it with the bodies' states.
	Shared func() ckpt.State
	// Recycle, when non-nil, is the machine of the caller's previous run.
	// If that run finished cleanly on the same configuration and flight
	// recorder, this run takes over its network and endpoints, reset, with
	// their FIFOs and inbox queues already grown. A machine that aborted,
	// timed out or was resumed into is never taken over: its inboxes may
	// hold batches of the dead run.
	Recycle *Machine
}

// Machine is the run-scoped simulated machine a kernel executes on: the
// network with its fault injector and flight recorder, one endpoint per
// node, the level loop every node runs, node 0's level and work ledgers,
// the watchdog, the straggler detector, the level-boundary checkpoint
// latch and the abort path. Both engines — the BFS runner and the round driver in
// internal/algos — supply only a Body per node: OpenMachine, build the
// bodies, Drive, read the results, Finish, Close.
type Machine struct {
	Net    *comm.Network
	Model  perf.Model
	Flight *obs.FlightRecorder

	spec   MachineSpec // Cfg with defaults applied
	config ckpt.MachineConfig
	inj    *chaos.Injector
	eps    []comm.Endpoint
	// start is the first level the loop runs: 0, or the checkpoint's
	// boundary on a resume.
	start int

	// Node 0's ledger. lastSnap is its counter snapshot after the final
	// recorded level: the delta to the end-of-run totals is the termination
	// traffic (the emptiness collectives) the trace reports separately so
	// its books balance. window is the open level's starting snapshot and
	// tick feeds the watchdog, advancing once per completed level.
	// stragglers are the detector's flags (Config.StragglerFactor), and
	// flows the relay endpoints' flow links of every level this machine
	// ran, collected when a trace recorder is attached.
	mu         sync.Mutex
	levels     []perf.LevelStats
	lastSnap   fabric.Snapshot
	window     fabric.Snapshot
	tick       atomic.Int64
	stragglers []obs.StragglerFlag
	flows      []obs.FlowLink

	// Per-node work slots, which node 0 folds in closeLevel, and the work
	// ledger: every node's deterministic module work of every completed
	// level, one row per level, kept on every run. Checkpoints carry it,
	// Finish folds the module metrics from it and trace lays it out.
	slots []LevelWork
	work  [][]ckpt.ModuleWork

	// The checkpoint latch: nodes stage their boundary captures and the
	// last one freezes the assembled checkpoint. Partially staged
	// boundaries are never published, so an abort always finds the newest
	// complete one.
	ckMu    sync.Mutex
	pending *ckpt.Checkpoint
	staged  int
	latest  *ckpt.Checkpoint
	// written counts checkpoint files written this run (tests poke it).
	written int

	// clean: Drive finished without an abort and not from a checkpoint —
	// the condition for being recycled.
	clean bool
}

// flightFor resolves the always-on black box: shared via the observer when
// attached there (so /debug/flight sees it), private otherwise. An event
// costs an atomic load, one ring mutex and an indexed counter (budget in
// docs/OBSERVABILITY.md); it is the only record of why a run aborted.
func flightFor(o *obs.Observer) *obs.FlightRecorder {
	if fr := o.FlightOf(); fr != nil {
		return fr
	}
	return obs.NewFlightRecorder(0)
}

// machineConfig builds the checkpoint identity record of a configuration
// over a graph. Defaults are applied first, so the fingerprint of a config
// reconstructed via ConfigFromCheckpoint matches the original.
func machineConfig(cfg Config, partition string, g *graph.CSR, digest string) ckpt.MachineConfig {
	cfg = cfg.withDefaults()
	codec := "raw"
	if cfg.Codec != nil {
		codec = cfg.Codec.Name()
	}
	codecBackward := ""
	if cfg.CodecBackward != nil {
		codecBackward = cfg.CodecBackward.Name()
	}
	return ckpt.MachineConfig{
		Nodes:              cfg.Nodes,
		SuperNodeSize:      cfg.SuperNodeSize,
		Transport:          cfg.Transport.String(),
		Engine:             cfg.Engine.String(),
		GroupM:             cfg.GroupM,
		DirectionOptimized: cfg.DirectionOptimized,
		AlphaBits:          math.Float64bits(cfg.Alpha),
		BetaBits:           math.Float64bits(cfg.Beta),
		HubPrefetch:        cfg.HubPrefetch,
		HubsTopDown:        cfg.HubsTopDown,
		HubsBottomUp:       cfg.HubsBottomUp,
		SmallMessageMPE:    cfg.SmallMessageMPE,
		BatchBytes:         cfg.BatchBytes,
		MPIMemoryBudget:    cfg.MPIMemoryBudget,
		Codec:              codec,
		CodecBackward:      codecBackward,
		Partition:          partition,
		GraphN:             g.N,
		GraphEdges:         g.NumEdges(),
		GraphDigest:        digest,
	}
}

// Host is the host-side half of a Config: the knobs machineConfig leaves
// out of the fingerprint, which a CLI takes from its command line and
// stamps onto every run, a resumed one included (ConfigFromCheckpoint, then
// Apply). None of them moves a modelled number except the codecs, which are
// fingerprinted and move only the bytes they save on the wire. The zero
// value runs with core's defaults.
type Host struct {
	// Workers is the per-node worker-pool width (0 = core's default).
	Workers int
	// Obs receives metrics, traces, spans and live events of every run.
	Obs *obs.Observer
	// ChaosPlan is injected verbatim; otherwise a non-zero ChaosSeed
	// derives a fresh random plan per configuration (node counts vary
	// across a sweep, and plan node IDs must stay in range).
	ChaosPlan *chaos.Plan
	ChaosSeed int64
	// LevelTimeout arms the per-level watchdog and StragglerFactor the
	// straggler detector (0 = off; see docs/CHAOS.md).
	LevelTimeout    time.Duration
	StragglerFactor float64
	// FlightDump is where an aborted run writes its post-mortem ("" =
	// in-memory only).
	FlightDump string
	// CheckpointEvery and CheckpointPath arm level-boundary checkpointing
	// (see docs/CHAOS.md "Checkpoint & resume").
	CheckpointEvery int
	CheckpointPath  string
	// Codec and CodecBackward select the wire codecs (nil = leave the
	// configuration's own; CodecBackward overrides the backward channel).
	Codec, CodecBackward comm.PayloadCodec
}

// Apply stamps the host knobs onto cfg. Set cfg.Nodes first: a seeded chaos
// plan is drawn for that node count.
func (h Host) Apply(cfg Config) Config {
	cfg.Workers = h.Workers
	cfg.Obs = h.Obs
	cfg.LevelTimeout = h.LevelTimeout
	cfg.StragglerFactor = h.StragglerFactor
	cfg.FlightDump = h.FlightDump
	cfg.CheckpointEvery = h.CheckpointEvery
	cfg.CheckpointPath = h.CheckpointPath
	if h.Codec != nil {
		cfg.Codec = h.Codec
	}
	if h.CodecBackward != nil {
		cfg.CodecBackward = h.CodecBackward
	}
	if h.ChaosPlan != nil {
		cfg.Chaos = h.ChaosPlan
	} else if h.ChaosSeed != 0 {
		plan := chaos.NewRandomPlan(h.ChaosSeed, cfg.Nodes)
		cfg.Chaos = &plan
	}
	return cfg
}

// validateResume checks a checkpoint against the run it is being loaded
// into — identity first, then internal consistency — before any machine
// state is touched or anything is emitted.
func validateResume(c *ckpt.Checkpoint, spec MachineSpec, mcfg ckpt.MachineConfig) error {
	if c.Kernel != spec.Kernel {
		return fmt.Errorf("core: checkpoint is for kernel %q, this run resumes %q", c.Kernel, spec.Kernel)
	}
	if c.Root != int64(spec.Root) {
		return fmt.Errorf("core: checkpoint root %d, this run uses %d", c.Root, spec.Root)
	}
	if c.Args != spec.Args {
		return fmt.Errorf("core: checkpoint kernel arguments %q, this run uses %q", c.Args, spec.Args)
	}
	if got := mcfg.Fingerprint(); got != c.Fingerprint {
		return fmt.Errorf("core: checkpoint fingerprint mismatch:\n  file: %s\n  run:  %s", c.Fingerprint, got)
	}
	if c.Config.GraphDigest == "" || c.Config.GraphDigest != mcfg.GraphDigest {
		return &GraphDigestError{File: c.Config.GraphDigest, Run: mcfg.GraphDigest}
	}
	if len(c.Nodes) != mcfg.Nodes {
		return fmt.Errorf("core: checkpoint has %d node states, machine has %d", len(c.Nodes), mcfg.Nodes)
	}
	if c.Level < 0 || c.Level != len(c.Machine.Levels) {
		return fmt.Errorf("core: checkpoint resumes at %s %d but records %d completed",
			spec.Unit, c.Level, len(c.Machine.Levels))
	}
	for i, ns := range c.Nodes {
		if ns.ID != i {
			return fmt.Errorf("core: checkpoint node state %d carries id %d", i, ns.ID)
		}
	}
	if len(c.Machine.Work) != c.Level {
		return fmt.Errorf("core: checkpoint's work ledger has %d rows for %d completed %ss",
			len(c.Machine.Work), c.Level, spec.Unit)
	}
	for i, row := range c.Machine.Work {
		if len(row) != mcfg.Nodes {
			return fmt.Errorf("core: checkpoint's work ledger row %d has %d nodes, machine has %d", i, len(row), mcfg.Nodes)
		}
		for _, w := range row {
			if w.Level != i {
				return fmt.Errorf("core: checkpoint's work ledger row %d records work of %s %d", i, spec.Unit, w.Level)
			}
		}
	}
	return nil
}

// OpenMachine opens one run: it validates spec.Resume, rebuilds the fault
// injector, and brings up the network, the timing model and every node's
// endpoint. It announces nothing: Drive does, once a resume has restored
// the bodies' states. The caller must Close the returned machine.
func OpenMachine(spec MachineSpec) (*Machine, error) {
	spec.Cfg = spec.Cfg.withDefaults()
	cfg, resume := spec.Cfg, spec.Resume
	prev := spec.Recycle
	spec.Recycle = nil // a machine must not keep its predecessors alive
	digest := spec.Digest
	if digest == "" && (cfg.CheckpointEvery > 0 || resume != nil) {
		digest = graph.Digest(spec.Graph, spec.Weights)
	}
	m := &Machine{
		spec:   spec,
		config: machineConfig(cfg, spec.Partition, spec.Graph, digest),
		Flight: spec.Flight,
		// A resumed run that dies before its next boundary still has a
		// checkpoint to offer: the one it resumed from.
		latest: resume,
	}
	if resume != nil {
		if err := validateResume(resume, spec, m.config); err != nil {
			return nil, err
		}
	}
	shape, err := shapeFor(cfg)
	if err != nil {
		return nil, err
	}

	m.slots = make([]LevelWork, cfg.Nodes)
	if m.Flight == nil {
		m.Flight = flightFor(cfg.Obs)
	}

	// The injector is rebuilt per run so every run against the same plan
	// replays the same faults — the determinism contract of docs/CHAOS.md.
	// A resume with no plan for the remainder still keeps an empty-schedule
	// injector when faults fired before the checkpoint, and seeds the log
	// either way, so the final injection log matches an uninterrupted
	// run's. A fired kill must be stripped from the plan by the caller
	// (chaos.Plan.Without): its coordinate lies in the re-run level and
	// would strike again.
	if cfg.Chaos != nil || (resume != nil && len(resume.Machine.Injections) > 0) {
		var plan chaos.Plan
		if cfg.Chaos != nil {
			plan = *cfg.Chaos
		}
		m.inj = chaos.NewInjector(plan, cfg.Obs.MetricsOf())
		m.inj.SetFlight(m.Flight)
		if resume != nil {
			m.inj.SeedLog(resume.Machine.Injections)
		}
	}

	recycled := prev != nil && prev.clean && resume == nil && prev.config == m.config && prev.Flight == m.Flight
	if recycled {
		m.Net, m.eps = prev.Net, prev.eps
		prev.clean = false // taken over once
		m.Net.Reset(m.inj)
	} else {
		m.Net, err = comm.NewNetwork(comm.Config{
			Nodes:           cfg.Nodes,
			SuperNodeSize:   cfg.SuperNodeSize,
			BatchBytes:      cfg.BatchBytes,
			MPIMemoryBudget: cfg.MPIMemoryBudget,
			Codec:           cfg.Codec,
			CodecBackward:   cfg.CodecBackward,
			Chaos:           m.inj,
			Flight:          m.Flight,
		})
		if err != nil {
			return nil, err
		}
		m.eps = make([]comm.Endpoint, cfg.Nodes)
	}
	m.Model = perf.NewModel(m.Net.Topo, cfg.Engine)
	if resume != nil {
		if err := m.Net.RestoreState(resume.Machine.Net); err != nil {
			m.Close()
			return nil, err
		}
		m.start = resume.Level
		m.levels = append([]perf.LevelStats(nil), resume.Machine.Levels...)
		m.work = slices.Clone(resume.Machine.Work)
		m.lastSnap = resume.Machine.LastSnap
		m.tick.Store(int64(resume.Level))
	}

	for node := range m.eps {
		switch {
		case recycled:
			m.eps[node].Reset()
		case cfg.Transport != TransportRelay:
			m.eps[node] = comm.NewDirectEndpoint(m.Net, node)
		default:
			if m.eps[node], err = comm.NewRelayEndpoint(m.Net, node, shape); err != nil {
				m.Close()
				return nil, err
			}
		}
		if ep, ok := m.eps[node].(*comm.RelayEndpoint); ok {
			ep.TallyFlows(cfg.Obs.TraceOf() != nil)
		}
	}
	return m, nil
}

// Close releases the run's network. The ledger, the injection log and the
// checkpoint latch stay readable.
func (m *Machine) Close() { m.Net.Close() }

// Cfg returns the run's configuration with defaults applied.
func (m *Machine) Cfg() Config { return m.spec.Cfg }

// Endpoint returns the node's transport endpoint.
func (m *Machine) Endpoint(node int) comm.Endpoint { return m.eps[node] }

// Levels returns the completed levels' statistics in order. The slice is
// shared with the ledger: read it after Drive returns.
func (m *Machine) Levels() []perf.LevelStats { return m.levels }

// Injections returns the faults injected so far, deterministically sorted;
// nil when the run has no injector.
func (m *Machine) Injections() []chaos.Fault {
	if m == nil {
		return nil
	}
	return m.inj.Log()
}

// Body is one node's side of a kernel: what differs between kernels in the
// level loop Drive runs. The loop calls a node's body on that node's
// goroutine only, in the order of its steps (see loop).
type Body interface {
	// Stats returns the node's statistics vector for the level, which the
	// loop sum-allreduces in place. Its first element is the node's
	// frontier: the run ends when that sums to zero, and the level's live
	// event and statistics carry the sum. The vector is the node's own,
	// reused every level, and of one length on every node.
	Stats(level int) []int64
	// Plan reads the summed statistics and returns the level's plan, which
	// every node decides alike. It may run collectives of its own (BFS's
	// hub allgather): the loop's rendezvous before Work publishes what
	// node 0 writes here. An error tears the run down.
	Plan(level int, sums []int64) (Plan, error)
	// Work runs the node's module work once the plan's channels are open
	// and returns the node's work vector; the loop fills in the level, the
	// direction, Processed, Sent and Messages. An error tears the run down.
	Work(level int, p Plan) (LevelWork, error)
	// Close completes node 0's statistics of the level, which the loop has
	// filled from the plan and the fold of every node's work vector, and
	// returns the detail of the level's flight record.
	Close(s perf.LevelStats, fold LevelWork) (perf.LevelStats, string)
	// State declares the node's checkpoint state, bound to its live values:
	// the machine captures it at every level boundary (Config.CheckpointEvery
	// > 0) and, on a resume, checks and loads it before the run starts.
	State() ckpt.State
}

// Plan is the shape of one level.
type Plan struct {
	// Dir is the traversal direction: a bottom-up level's generator is the
	// backward one in the module ledger. Round kernels run top-down.
	Dir Direction
	// Label is the level's direction in live events and statistics.
	Label string
	// Channels are the channels the level opens.
	Channels []comm.Channel
	// Edges are the edges the level relaxes as known before its work: the
	// live level event carries them and the level's statistics start from
	// them.
	Edges int64
}

// LevelWork is one node's work vector of one level: its row of the work
// ledger (module bytes, invocations and MPE small batches), the module
// bytes in all (Processed), the bytes and messages it sent and the pairs it
// sent — plus the host nanoseconds its generator and handler modules took,
// which only the straggler detector reads and no checkpoint holds.
type LevelWork struct {
	ckpt.ModuleWork
	Processed, Sent, Messages, Pairs int64
	GenNanos, HandlerNanos           int64
}

// loop runs one node's levels from m.start until the frontier sums to
// zero: the level protocol, written once for every kernel. Each level:
//
//  1. node 0 opens the level's accounting window and flight record;
//  2. every node sum-allreduces its statistics, one charged collective,
//     and the run ends when the frontier, the first sum, is zero;
//  3. every node plans the level, and node 0 publishes its live event;
//  4. every node opens the plan's channels and joins a host-only
//     rendezvous (comm.Network.Sync), so no level traffic reaches an
//     endpoint that has not opened them;
//  5. every node works, writes its work vector into its slot and joins a
//     second rendezvous;
//  6. node 0 folds the slots and records the level (closeLevel);
//  7. every node stages its checkpoint capture (stageCheckpoint).
//
// Two windows keep the books exact. Node 0 opens the accounting window
// before the level's first collective, so every byte of the level lands in
// exactly one level's delta: no peer can move a byte before node 0 joins
// that collective. And a node captures its boundary state after step 5's
// rendezvous and before the next level's allreduce, where no traffic moves.
func (m *Machine) loop(node int, b Body) error {
	net, ep := m.Net, m.eps[node]
	for level := m.start; ; level++ {
		if node == 0 {
			m.window = net.Counters.Snapshot()
			m.Flight.Control(obs.FlightRoundOpen, -1, level, "")
		}
		sums := b.Stats(level)
		if net.AllreduceSums(sums); net.Aborted() {
			return ErrAborted
		}
		if sums[0] == 0 {
			return nil
		}
		p, err := b.Plan(level, sums)
		if err != nil {
			net.Abort()
			return err
		}
		if pb := m.spec.Cfg.Obs.ProgressOf(); node == 0 && pb != nil {
			pb.Publish(obs.LiveEvent{
				Kind: obs.EventLevel, Root: int64(m.spec.Root), Kernel: m.label(),
				Level: level, Direction: p.Label,
				FrontierVertices: sums[0], EdgesRelaxed: p.Edges,
			})
		}

		ep.StartLevel(level, p.Channels...)
		if net.Sync(); net.Aborted() {
			return ErrAborted
		}
		msgs, bytes := net.NodeSent(node)
		w, err := b.Work(level, p)
		if err != nil {
			net.Abort()
			return err
		}
		msgs1, bytes1 := net.NodeSent(node)
		w.Level, w.Dir = level, int(p.Dir)
		w.Sent, w.Messages = bytes1-bytes, msgs1-msgs
		for _, mb := range w.Bytes {
			w.Processed += mb
		}
		m.slots[node] = w
		if net.Sync(); net.Aborted() {
			return ErrAborted
		}
		if node == 0 {
			m.closeLevel(level, sums[0], p, b)
		}

		if m.spec.Cfg.CheckpointEvery > 0 {
			if err := m.stageCheckpoint(node, level, b); err != nil {
				net.Abort()
				return err
			}
		}
	}
}

// closeLevel records a completed level on node 0. It folds the nodes' work
// slots — per-field maxima, the critical path, with Pairs summed — and
// appends their ledger rows to the work ledger; the body completes the
// statistics; the machine adds the window's traffic, collects the relay
// endpoints' flow tallies when tracing, feeds the watchdog, stamps the
// flight record with the body's detail and, when armed, runs the straggler
// detector.
func (m *Machine) closeLevel(level int, frontier int64, p Plan, b Body) {
	var f LevelWork
	row := make([]ckpt.ModuleWork, len(m.slots))
	for i, s := range m.slots {
		f.Processed = max(f.Processed, s.Processed)
		f.Sent = max(f.Sent, s.Sent)
		f.Messages = max(f.Messages, s.Messages)
		f.Invocations = max(f.Invocations, s.Invocations)
		for mi, mb := range s.Bytes {
			f.Bytes[mi] = max(f.Bytes[mi], mb)
		}
		f.Pairs += s.Pairs
		row[i] = s.ModuleWork
	}

	rounds := len(p.Channels) // transport stages x channels opened
	if m.spec.Cfg.Transport == TransportRelay {
		rounds *= 2
	}
	s, detail := b.Close(perf.LevelStats{
		Level: level, Direction: p.Label,
		FrontierVertices: frontier, FrontierEdges: p.Edges,
		MaxNodeProcessedBytes: f.Processed, MaxNodeSentBytes: f.Sent,
		MaxNodeMessages: f.Messages, ModuleInvocations: f.Invocations,
		Rounds: rounds,
	}, f)
	after := m.Net.Counters.Snapshot()
	s.Net = after.Sub(m.window)
	m.mu.Lock()
	m.levels = append(m.levels, s)
	m.work = append(m.work, row)
	m.lastSnap = after
	m.mu.Unlock()
	if m.spec.Cfg.Obs.TraceOf() != nil {
		for _, ep := range m.eps {
			if r, ok := ep.(*comm.RelayEndpoint); ok {
				m.flows = r.AppendFlows(m.flows)
			}
		}
	}
	m.tick.Add(1)
	m.Flight.Control(obs.FlightRoundClose, -1, level, detail)
	if m.spec.Cfg.StragglerFactor > 0 {
		m.detectStragglers(level)
	}
}

// stragglerFloorNanos is the absolute floor below which a level is too
// fast for its spread to mean anything: sub-200µs levels on an idle host
// are scheduler noise, not stragglers.
const stragglerFloorNanos = 200_000

// detectStragglers flags the nodes whose host-side module time for this
// level exceeded the all-node mean of that module class by the configured
// factor. Generator and handler times are compared within their own class:
// a generator straggler delays every peer's handler, so only the per-class
// comparison blames the slow node instead of its victims (whole-level wall
// time cannot: every node's level ends with the slowest peer's end
// markers). Node 0 reads the slots in closeLevel, where none can be
// rewritten. Host time only: LevelStats are never perturbed.
func (m *Machine) detectStragglers(level int) {
	factor := m.spec.Cfg.StragglerFactor
	var genSum, handlerSum int64
	for _, s := range m.slots {
		genSum += s.GenNanos
		handlerSum += s.HandlerNanos
	}
	genMean := float64(genSum) / float64(len(m.slots))
	handlerMean := float64(handlerSum) / float64(len(m.slots))
	for node, s := range m.slots {
		var host, mean float64
		if g := float64(s.GenNanos); g > factor*genMean && g > stragglerFloorNanos {
			host, mean = g, genMean
		}
		if h := float64(s.HandlerNanos); h > factor*handlerMean && h > stragglerFloorNanos && h > host {
			host, mean = h, handlerMean
		}
		if host == 0 {
			continue
		}
		sf := obs.StragglerFlag{Node: node, Level: level, HostSeconds: host / 1e9, MeanHostSeconds: mean / 1e9}
		m.stragglers = append(m.stragglers, sf)
		// Host timings: a straggler event's detail is nondeterministic,
		// which is why byte-identical dumps require the detector off.
		m.Flight.Control(obs.FlightStraggler, node, level,
			fmt.Sprintf("host=%.6fs mean=%.6fs", sf.HostSeconds, sf.MeanHostSeconds))
		if pb := m.spec.Cfg.Obs.ProgressOf(); pb != nil {
			pb.Publish(obs.LiveEvent{
				Kind: obs.EventStraggler, Root: int64(m.spec.Root), Kernel: m.label(),
				Level: level, Node: node,
				HostSeconds: sf.HostSeconds, MeanHostSeconds: sf.MeanHostSeconds,
			})
		}
	}
}

// Drive runs the level loop once per node on that node's body, SPMD-style,
// under the level watchdog, and joins. A resume first restores the bodies
// (restore), and a refusal returns before anything is announced. A
// torn-down run returns an
// *AbortError carrying the original cause, the completed levels, the
// post-mortem flight dump, the injection log and the newest complete
// checkpoint.
func (m *Machine) Drive(bodies func(node int) Body) error {
	cfg, unit := m.spec.Cfg, m.spec.Unit
	bs := make([]Body, cfg.Nodes)
	for node := range bs {
		bs[node] = bodies(node)
	}
	if m.spec.Resume != nil {
		if err := m.restore(bs); err != nil {
			return err
		}
	}
	// Announce the run. A resume restores the flight rings, so its run index
	// and earlier events continue and its dump reconciles with the log.
	if pb := cfg.Obs.ProgressOf(); pb != nil {
		pb.Publish(obs.LiveEvent{Kind: obs.EventRunStart, Root: int64(m.spec.Root), Kernel: m.label()})
	}
	if m.spec.Resume == nil {
		m.Flight.BeginRun(int64(m.spec.Root), m.spec.Kernel, cfg.Nodes, cfg.Transport.String())
	} else {
		m.Flight.RestoreState(m.spec.Resume.Machine.Flight)
	}
	if cfg.CheckpointEvery > 0 && cfg.Obs != nil {
		cfg.Obs.Checkpoint = m
	}

	// Watchdog: if node 0's tick stops advancing for a whole timeout
	// window, poison the network so every blocked module unwinds.
	watchdogErr := make(chan error, 1)
	watchdogStop := make(chan struct{})
	if cfg.LevelTimeout > 0 {
		if m.spec.Resume == nil {
			// A resumed run's restored rings already hold the arm event.
			m.Flight.Control(obs.FlightWatchdogArm, -1, -1, unit+" timeout "+cfg.LevelTimeout.String())
		}
		go func() {
			t := time.NewTicker(cfg.LevelTimeout)
			defer t.Stop()
			last := m.tick.Load()
			for {
				select {
				case <-watchdogStop:
					return
				case <-t.C:
					cur := m.tick.Load()
					if cur != last {
						last = cur
						continue
					}
					msg := fmt.Sprintf("no %s completed within %s", unit, cfg.LevelTimeout)
					m.Flight.Control(obs.FlightWatchdogFire, -1, int(cur), msg)
					watchdogErr <- fmt.Errorf("%w: %s", ErrLevelTimeout, msg)
					m.Net.Abort()
					return
				}
			}
		}()
	}

	errs := make([]error, cfg.Nodes)
	var wg sync.WaitGroup
	for node := range errs {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			errs[node] = m.loop(node, bs[node])
		}(node)
	}
	wg.Wait()
	close(watchdogStop)

	// Consequence errors (ErrAborted from a peer's teardown, comm
	// inbox-closed errors wrapping comm.ErrAborted) are filtered so the
	// original failure surfaces as the abort cause.
	var cause error
	aborted := m.Net.Aborted()
	for _, err := range errs {
		if err == nil {
			continue
		}
		aborted = true
		if cause == nil && !errors.Is(err, ErrAborted) && !errors.Is(err, comm.ErrAborted) {
			cause = err
		}
	}
	if !aborted {
		m.clean = m.spec.Resume == nil
		return nil
	}
	if cause == nil {
		cause = m.Net.Err() // a mismatched collective, seen by every node as an abort
	}
	if cause == nil {
		select {
		case cause = <-watchdogErr:
		default:
			cause = errors.New("core: run aborted without a reported cause")
		}
	}

	// Post-mortem: stamp the abort, drain the black box, write the dump when
	// a path was configured (best-effort — a failed write still leaves the
	// in-memory dump on the error), and put the newest complete checkpoint
	// next to it.
	m.Flight.Control(obs.FlightAbort, -1, len(m.levels), cause.Error())
	ae := &AbortError{
		Root:            m.spec.Root,
		Cause:           cause,
		CompletedLevels: append([]perf.LevelStats(nil), m.levels...),
		Injections:      m.inj.Log(),
		FlightDump:      m.Flight.Dump(),
		Checkpoint:      m.LastCheckpoint(),
	}
	ae.FlightDump.Aborted = true
	ae.FlightDump.Cause = cause.Error()
	if cfg.FlightDump != "" && obs.WriteFlightDumpFile(cfg.FlightDump, ae.FlightDump) == nil {
		ae.FlightPath = cfg.FlightDump
	}
	// The abort checkpoint goes to CheckpointPath when set, else next to the
	// flight dump as <FlightDump>.ckpt.json.
	path := cfg.CheckpointPath
	if path == "" && cfg.FlightDump != "" {
		path = cfg.FlightDump + ".ckpt.json"
	}
	if ae.Checkpoint != nil && cfg.CheckpointEvery > 0 && path != "" && ckpt.WriteFile(path, ae.Checkpoint) == nil {
		ae.CheckpointPath = path
	}
	return ae
}

// restore checks the kernel's machine-wide state and every body's node
// payload against the resume checkpoint, each through its declared State,
// and loads them only once all have passed: a refused resume writes nothing.
func (m *Machine) restore(bodies []Body) error {
	c := m.spec.Resume
	var loads []func()
	if m.spec.Shared != nil {
		shared, _ := json.Marshal(map[string]any{"policy": c.Machine.Policy, "hub_visited": c.Machine.HubVisited}) // always marshals
		load, err := m.spec.Shared().Decode(shared)
		if err != nil {
			return fmt.Errorf("core: checkpoint machine state: %w", err)
		}
		loads = append(loads, load)
	}
	for node, b := range bodies {
		load, err := b.State().Decode(c.Nodes[node].Data)
		if err != nil {
			return fmt.Errorf("core: node %d checkpoint state: %w", node, err)
		}
		loads = append(loads, load)
	}
	for _, load := range loads {
		load()
	}
	return nil
}

// stageCheckpoint stages one node's boundary capture; level is the level
// that just completed (the checkpoint's Level is level+1 — the resumed
// run's start level). Each node calls it at the bottom of its loop, after
// the work rendezvous and before joining the next level's first
// collective. That window makes the capture race-free without any
// modelled traffic: once a node returns from the rendezvous every node has
// finished the
// level's module work, so every byte of it is recorded, and no next-level
// traffic, flight event or injection can occur until all nodes (each after
// its own capture) join the next level's first collective — so node 0's
// machine-wide reads here are stable and deterministic. The last node to
// stage freezes the checkpoint and, at the configured cadence, writes it to
// Config.CheckpointPath; a failed periodic write is fatal — silently
// continuing would lose the restart guarantee.
func (m *Machine) stageCheckpoint(node, level int, b Body) error {
	data := b.State().Encode()
	var machine *ckpt.MachineState
	if node == 0 {
		m.mu.Lock()
		machine = &ckpt.MachineState{
			Levels:     append([]perf.LevelStats(nil), m.levels...),
			LastSnap:   m.lastSnap,
			Net:        m.Net.CaptureState(),
			Injections: m.inj.Log(),
			Flight:     m.Flight.CaptureState(),
			Work:       slices.Clone(m.work),
		}
		m.mu.Unlock()
		if m.spec.Shared != nil { // each field under its own key
			if err := json.Unmarshal(m.spec.Shared().Encode(), machine); err != nil {
				return err
			}
		}
	}
	m.ckMu.Lock()
	defer m.ckMu.Unlock()
	if m.pending == nil || m.pending.Level != level+1 {
		m.pending = &ckpt.Checkpoint{
			Schema:      ckpt.SchemaVersion,
			Kernel:      m.spec.Kernel,
			Root:        int64(m.spec.Root),
			Args:        m.spec.Args,
			Config:      m.config,
			Fingerprint: m.config.Fingerprint(),
			Level:       level + 1,
			Nodes:       make([]ckpt.NodeState, m.spec.Cfg.Nodes),
		}
		m.staged = 0
	}
	c := m.pending
	c.Nodes[node] = ckpt.NodeState{ID: node, Data: data}
	if machine != nil {
		c.Machine = *machine
	}
	m.staged++
	if m.staged < m.spec.Cfg.Nodes {
		return nil
	}
	// Boundary complete: publish, and write the file at the cadence.
	m.pending = nil
	m.latest = c
	if m.spec.Cfg.CheckpointPath != "" && c.Level%m.spec.Cfg.CheckpointEvery == 0 {
		if err := ckpt.WriteFile(m.spec.Cfg.CheckpointPath, c); err != nil {
			return fmt.Errorf("core: writing checkpoint at %s %d: %w", m.spec.Unit, c.Level, err)
		}
		m.written++
	}
	return nil
}

// LastCheckpoint returns the newest fully staged checkpoint (nil before the
// first boundary of a fresh run).
func (m *Machine) LastCheckpoint() *ckpt.Checkpoint {
	if m == nil {
		return nil
	}
	m.ckMu.Lock()
	defer m.ckMu.Unlock()
	return m.latest
}

// CheckpointJSON implements obs.CheckpointSource: the canonical encoding of
// the latest checkpoint, for /debug/checkpoint.
func (m *Machine) CheckpointJSON() ([]byte, bool) {
	c := m.LastCheckpoint()
	if c == nil {
		return nil, false
	}
	data, err := ckpt.Encode(c)
	return data, err == nil
}

// trace converts the ledger into a RunTrace whose books balance
// (RunTrace.Reconcile): level wall times sum to the run's modelled time,
// level byte counts plus the termination traffic sum to the fabric's grand
// total, and every relay passes on what it receives. It lays the work
// ledger out as module spans and stamps each straggler flag with its
// level's start. Finish has the body fill in its header fields.
func (m *Machine) trace() obs.RunTrace {
	final := m.Net.Counters.Snapshot()
	term := final.Sub(m.lastSnap)
	rt := obs.RunTrace{
		Root: int64(m.spec.Root),

		TerminationCollectiveBytes: term.CollectiveBytes,
		TerminationWireBytes:       term.NetworkBytes(),
		TotalNetworkBytes:          final.NetworkBytes(),

		CodecTraffic: m.Net.CodecTraffic(),
	}
	starts := make([]float64, len(m.levels)+1)
	rt.Levels = make([]obs.LevelSpan, 0, len(m.levels))
	for i, s := range m.levels {
		wall := m.Model.LevelTime(s)
		starts[i+1] = starts[i] + wall
		rt.Levels = append(rt.Levels, obs.LevelSpan{
			Level:            s.Level,
			Direction:        s.Direction,
			FrontierVertices: s.FrontierVertices,
			EdgesRelaxed:     s.FrontierEdges,
			WallSeconds:      wall,
			Rounds:           s.Rounds,

			LoopbackBytes:   s.Net.Bytes[fabric.Loopback],
			IntraSuperBytes: s.Net.Bytes[fabric.IntraSuper],
			InterSuperBytes: s.Net.Bytes[fabric.InterSuper],

			CollectiveBytes:     s.Net.CollectiveBytes,
			CollectiveWireBytes: s.Net.CollectiveWireBytes(),
			CollectiveOps:       s.Net.CollectiveOps,

			NetworkBytes:    s.Net.NetworkBytes(),
			NetworkMessages: s.Net.Messages[fabric.IntraSuper] + s.Net.Messages[fabric.InterSuper],

			MaxNodeProcessedBytes: s.MaxNodeProcessedBytes,
			MaxNodeSentBytes:      s.MaxNodeSentBytes,
		})
	}
	rt.TotalSeconds = starts[len(m.levels)]
	rt.Spans = m.spans(starts)
	for i, sf := range m.stragglers {
		if sf.Level < len(m.levels) {
			m.stragglers[i].Start = starts[sf.Level]
		}
	}
	rt.Stragglers = m.stragglers
	slices.SortFunc(m.flows, func(a, b obs.FlowLink) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Stage, b.Stage),
			cmp.Compare(a.Channel, b.Channel), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	rt.Flows = m.flows
	return rt
}

// spans lays the work ledger's module bytes of every node out on the
// modelled timeline, starts holding each level's start. A module span
// starts at its level's start and lasts bytes/bandwidth at the configured
// engine's module bandwidth. Modules run concurrently (one CPE cluster
// each, Figure 10), so spans of one level overlap by design; none outlasts
// its level, whose time bounds the slowest node's makespan from above.
func (m *Machine) spans(starts []float64) []obs.ModuleSpan {
	cfg := m.spec.Cfg
	bw := cfg.Engine.Bandwidth()
	workers := 0
	if cfg.Workers > 1 {
		workers = cfg.Workers // attribute the lane count only when fanned out
	}
	var spans []obs.ModuleSpan
	for _, row := range m.work {
		for node, w := range row {
			names := [4]string{obs.ModuleForwardGenerator, obs.ModuleForwardHandler, obs.ModuleBackwardHandler, obs.ModuleRelay}
			if Direction(w.Dir) == BottomUp {
				names[0] = obs.ModuleBackwardGenerator
			}
			for mi, b := range w.Bytes {
				if b > 0 {
					spans = append(spans, obs.ModuleSpan{
						Node: node, Module: names[mi], Level: w.Level,
						Start: starts[w.Level], Dur: float64(b) / bw, Bytes: b,
						Workers: workers,
					})
				}
			}
		}
	}
	return spans
}

// moduleMetrics name the work ledger's module byte counters, in the order
// of ckpt.ModuleWork.Bytes.
var moduleMetrics = [4]string{
	"core.module.generator.bytes",
	"core.module.handler.forward.bytes",
	"core.module.handler.backward.bytes",
	"core.module.relay.bytes",
}

// foldWork adds the work ledger, summed over every node and level of the
// run, to the module counters. A resumed run's ledger starts with the
// checkpoint's rows, so it folds what an uninterrupted run would.
func (m *Machine) foldWork(mr *obs.Registry) {
	var run ckpt.ModuleWork
	for _, row := range m.work {
		for _, w := range row {
			for i, b := range w.Bytes {
				run.Bytes[i] += b
			}
			run.Invocations += w.Invocations
			run.SmallBatches += w.SmallBatches
		}
	}
	for i, name := range moduleMetrics {
		mr.Counter(name).Add(run.Bytes[i])
	}
	mr.Counter("core.module.invocations").Add(run.Invocations)
	mr.Counter("core.module.small_batches_mpe").Add(run.SmallBatches)
}

// label is the kernel's name in live events: none for BFS
// (obs.LiveEvent.Kernel).
func (m *Machine) label() string {
	if m.spec.Kernel == KernelBFS {
		return ""
	}
	return m.spec.Kernel
}

// Finish seals a completed run on the observer, after Drive and before
// Close: it records the run's RunTrace (module spans, flows and straggler
// flags included), header (when non-nil) filling in the body's header
// fields; folds the module metrics of the work ledger, the worker width,
// the straggler count and the network's metrics; and publishes the run's
// end, done carrying the body's Visited and GTEPS.
func (m *Machine) Finish(header func(*obs.RunTrace), done obs.LiveEvent) {
	o := m.spec.Cfg.Obs
	if t := o.TraceOf(); t != nil {
		rt := m.trace()
		if header != nil {
			header(&rt)
		}
		t.Record(rt)
	}
	if mr := o.MetricsOf(); mr != nil {
		m.foldWork(mr)
		mr.Gauge("core.workers").Set(int64(m.spec.Cfg.Workers))
		if n := len(m.stragglers); n > 0 {
			mr.Counter("core.stragglers").Add(int64(n))
		}
		m.Net.MetricsInto(mr)
	}
	if pb := o.ProgressOf(); pb != nil {
		done.Kind, done.Root, done.Kernel = obs.EventRunDone, int64(m.spec.Root), m.label()
		pb.Publish(done)
	}
}
