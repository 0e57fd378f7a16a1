// Package algos implements the other irregular graph algorithms the paper
// names as direct beneficiaries of its techniques (Section 8: "the key
// operations of the distributed BFS can be viewed as shuffling dynamically
// generated data, which is also the major operation of many other graph
// algorithms, such as SSSP, WCC, PageRank, and K-core decomposition. All
// the three key techniques we used are readily applicable").
//
// Every algorithm here runs on exactly the same substrate as the BFS
// engine — the comm transports (direct or group-batched relay), the
// fat-tree traffic accounting, the perf timing model, the chaos fault
// injector and the observability sinks — via a shared round-synchronous
// SPMD driver: each round, every node generates messages from its active
// vertices, the transport batches and delivers them, handlers fold them
// into local state, and a sum-allreduce decides termination.
//
// The driver mirrors the BFS runner's operational contract (see
// docs/ALGORITHMS.md): live per-round events on the ProgressBroker, a
// reconciling RunTrace plus generator/handler module spans per run,
// chaos-injected faults with bounded retries, a per-round watchdog, and
// clean *core.AbortError teardown with the completed rounds attached.
package algos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/fabric"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
	"swbfs/internal/sw"
)

// DefaultMaxRounds guards against non-converging algorithm bugs.
const DefaultMaxRounds = 100000

var errAborted = errors.New("algos: run aborted by peer failure")

// NodeCtx is one node's view of the machine, handed to algorithm
// constructors.
type NodeCtx struct {
	ID   int
	Part graph.Partition
	Sub  *graph.LocalSubgraph
	Net  *comm.Network // collectives (all nodes must call symmetrically)
	// Workers is the resolved host worker-pool width (core.Config.Workers
	// with defaults applied) a kernel's hot loops may fan out over. The
	// contract is bit-identical output for every width — see the worker
	// parity rules in docs/ALGORITHMS.md.
	Workers int
}

// Global converts a local vertex index to its global ID.
func (c *NodeCtx) Global(local int64) graph.Vertex { return c.Part.Global(c.ID, local) }

// Send is the message emitter handed to Generate. Messages are staged and
// reach the transport in comm.StageCapPairs-pair streams, so a transport
// error surfaces at the next flush — from a later Send call or from the
// driver after Generate returns — not at the offending pair. A non-nil
// error means the run is tearing down: return it promptly.
type Send func(dst int, p comm.Pair) error

// RoundAlgo is one node's algorithm instance.
type RoundAlgo interface {
	// Active returns this node's pending work; the round runs only while
	// the machine-wide sum is positive.
	Active() int64
	// Generate emits this node's messages for the round and retires the
	// work it announced via Active.
	Generate(round int, send Send) error
	// Handle folds one delivered batch into local state.
	Handle(round int, pairs []comm.Pair) error
	// EndRound runs after all of the round's traffic has been handled
	// (symmetric across nodes; collectives are allowed here).
	EndRound(round int) error
}

// RunOptions identifies and bounds one driver run.
type RunOptions struct {
	// MaxRounds guards against non-convergence (<= 0 selects
	// DefaultMaxRounds).
	MaxRounds int
	// Kernel names the algorithm for live events, metrics and abort
	// reports ("sssp", "wcc", ...).
	Kernel string
	// Root is the run's identity vertex, threaded into live events,
	// recorded traces and AbortError. Rootless kernels (WCC, PageRank,
	// K-core) pass graph.NoVertex.
	Root graph.Vertex
	// Resume, when non-nil, reconstructs the ensemble from a round-boundary
	// checkpoint instead of starting fresh: every node's kernel state is
	// restored through its Checkpointer hook and the loop re-enters at the
	// recorded round. The caller must rebuild the same graph and pass an
	// equivalent machine configuration (fingerprint-checked) and identical
	// kernel parameters; Workers, observers, timeouts and the chaos plan
	// are host-side and may differ. The completed run's RunInfo is bitwise
	// identical to an uninterrupted run's.
	Resume *ckpt.Checkpoint
}

// RunInfo is the machine-level outcome of a run.
type RunInfo struct {
	Rounds int
	Levels []perf.LevelStats
	// Time and the throughput helpers come from the perf model.
	Time float64
	// NetworkBytes and NetworkMessages total the wire traffic.
	NetworkBytes, NetworkMessages int64
	// MaxConnections is the peak per-node MPI connection count.
	MaxConnections int
	// Injections is the deterministically sorted log of the faults the
	// chaos injector fired during the run; nil without a chaos plan.
	Injections []chaos.Fault
}

// MTEPS returns millions of traversed edges per second for `edges`
// processed edge relaxations.
func (r *RunInfo) MTEPS(edges int64) float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(edges) / r.Time / 1e6
}

// runState is the cross-node shared state of one driver run.
type runState struct {
	mu   sync.Mutex
	info *RunInfo
	// lastSnap is node 0's counter snapshot after the final recorded
	// round; the delta to the end-of-run totals is the termination
	// traffic (the final emptiness allreduce) the trace reports
	// separately so its books balance.
	lastSnap fabric.Snapshot
	// roundTick feeds the watchdog: node 0 advances it once per
	// completed round.
	roundTick atomic.Int64
}

// Run executes one algorithm on the simulated machine described by cfg
// over graph g. makeAlgo constructs each node's instance.
//
// The run is driven through the same instrumented, chaos-aware path as
// the BFS engine: cfg.Chaos faults inject into every send, cfg.LevelTimeout
// arms a per-round watchdog, cfg.Obs receives live round events, a
// reconciling RunTrace and module spans, and a torn-down run returns a
// *core.AbortError carrying the original cause and the completed rounds.
func Run(cfg core.Config, g *graph.CSR, opts RunOptions, makeAlgo func(ctx *NodeCtx) (RoundAlgo, error)) (*RunInfo, error) {
	if err := core.ValidateConfig(cfg); err != nil {
		return nil, err
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	kernel := opts.Kernel
	if kernel == "" {
		kernel = "algo"
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = sw.DefaultWorkers(cfg.Nodes)
	}
	workers = sw.ClampWorkers(workers)

	if pb := cfg.Obs.ProgressOf(); pb != nil {
		pb.Publish(obs.LiveEvent{Kind: obs.EventRunStart, Root: int64(opts.Root), Kernel: kernel})
	}
	if sr := cfg.Obs.SpansOf(); sr != nil {
		sr.BeginRun(int64(opts.Root))
	}

	resume := opts.Resume
	mcfg := driverMachineConfig(cfg, g)
	if resume != nil {
		if err := validateResume(resume, kernel, opts.Root, mcfg, cfg.Nodes); err != nil {
			return nil, err
		}
	}

	// Flight recording is always on, exactly as in the BFS runner: shared
	// via the observer when attached there, private otherwise. A resume
	// reloads the checkpoint's rings instead of opening a new run, so the
	// post-resume dump covers the pre-checkpoint events under the original
	// run index.
	flight := cfg.Obs.FlightOf()
	if flight == nil {
		flight = obs.NewFlightRecorder(0)
	}
	if resume == nil {
		flight.BeginRun(int64(opts.Root), kernel, cfg.Nodes, cfg.Transport.String())
	} else {
		flight.RestoreState(resume.Machine.Flight)
	}

	// The injector is rebuilt per run so every Run against the same plan
	// replays the same faults — the determinism contract of docs/CHAOS.md,
	// identical to the BFS runner's per-root rebuild. A resume seeds the
	// log with the checkpoint's already-fired faults (and consumes them
	// from the schedule) so the final Injections match an uninterrupted
	// run; with no plan but a non-empty seeded log, an empty-schedule
	// injector still reports them.
	var inj *chaos.Injector
	if cfg.Chaos != nil {
		inj = chaos.NewInjector(*cfg.Chaos, cfg.Obs.MetricsOf())
		inj.SetFlight(flight)
	} else if resume != nil && len(resume.Machine.Injections) > 0 {
		inj = chaos.NewInjector(chaos.Plan{}, cfg.Obs.MetricsOf())
		inj.SetFlight(flight)
	}
	if inj != nil && resume != nil {
		inj.SeedLog(resume.Machine.Injections)
	}

	part := graph.NewRoundRobin(g.N, cfg.Nodes)
	net, err := comm.NewNetwork(comm.Config{
		Nodes:           cfg.Nodes,
		SuperNodeSize:   cfg.SuperNodeSize,
		BatchBytes:      cfg.BatchBytes,
		MPIMemoryBudget: cfg.MPIMemoryBudget,
		Codec:           cfg.Codec,
		CodecBackward:   cfg.CodecBackward,
		Chaos:           inj,
		Flight:          flight,
	})
	if err != nil {
		return nil, err
	}
	defer net.Close()

	shape := comm.GroupShape{}
	if cfg.Transport == core.TransportRelay {
		if cfg.GroupM > 0 {
			shape, err = comm.NewGroupShape(cfg.Nodes, cfg.GroupM)
			if err != nil {
				return nil, err
			}
		} else {
			super := cfg.SuperNodeSize
			if super <= 0 {
				super = 256
			}
			shape = comm.DefaultGroupShape(cfg.Nodes, super)
		}
	}

	st := &runState{info: &RunInfo{}}
	startRound := 0
	if resume != nil {
		startRound = resume.Level
		st.info.Levels = append([]perf.LevelStats(nil), resume.Machine.Levels...)
		st.lastSnap = resume.Machine.LastSnap
		st.roundTick.Store(int64(startRound))
		if err := net.RestoreState(resume.Machine.Net); err != nil {
			return nil, err
		}
	}

	// The checkpoint latch: every boundary is captured in memory (backing
	// /debug/checkpoint and the abort auto-checkpoint); every
	// CheckpointEvery-th one is written to CheckpointPath. On a resume with
	// checkpointing off, the latch still carries the source checkpoint so a
	// second abort reports the newest usable boundary.
	var ck *driverCkpt
	if cfg.CheckpointEvery > 0 || resume != nil {
		ck = &driverCkpt{
			every:  cfg.CheckpointEvery,
			path:   cfg.CheckpointPath,
			kernel: kernel,
			root:   int64(opts.Root),
			nodes:  cfg.Nodes,
			config: mcfg,
			net:    net,
			inj:    inj,
			flight: flight,
			st:     st,
			latest: resume,
		}
		if cfg.CheckpointEvery > 0 && cfg.Obs != nil {
			cfg.Obs.Checkpoint = ck
		}
	}

	nodes := make([]*nodeRun, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		ctx := &NodeCtx{
			ID:      i,
			Part:    part,
			Sub:     graph.ExtractLocal(g, part, i),
			Net:     net,
			Workers: workers,
		}
		algo, err := makeAlgo(ctx)
		if err != nil {
			return nil, fmt.Errorf("algos: node %d: %w", i, err)
		}
		var ep comm.Endpoint
		if cfg.Transport == core.TransportRelay {
			rep, err := comm.NewRelayEndpoint(net, i, shape)
			if err != nil {
				return nil, err
			}
			rep.SetFlowSink(cfg.Obs.SpansOf())
			ep = rep
		} else {
			ep = comm.NewDirectEndpoint(net, i)
		}
		nodes[i] = &nodeRun{
			ctx: ctx, algo: algo, ep: ep, net: net, st: st,
			maxRounds:  maxRounds,
			startRound: startRound,
			kernel:     kernel,
			root:       int64(opts.Root),
			progress:   cfg.Obs.ProgressOf(),
			keepSpans:  cfg.Obs.SpansOf() != nil,
			flight:     flight,
			ck:         ck,
		}
		if cfg.CheckpointEvery > 0 {
			if _, ok := algo.(Checkpointer); !ok {
				return nil, fmt.Errorf("algos: kernel %q does not implement Checkpointer; cannot checkpoint", kernel)
			}
		}
		if resume != nil {
			if err := nodes[i].restoreNode(resume.Nodes[i].Data); err != nil {
				return nil, err
			}
		}
	}

	// Per-round watchdog: if node 0's tick stops advancing for a whole
	// timeout window, poison the network so every blocked module unwinds —
	// the same recovery knob the BFS runner arms (core.ErrLevelTimeout).
	var watchdogErr chan error
	var watchdogStop chan struct{}
	if cfg.LevelTimeout > 0 {
		watchdogErr = make(chan error, 1)
		watchdogStop = make(chan struct{})
		if resume == nil {
			// A resumed run's restored rings already hold the arm event.
			flight.Control(obs.FlightWatchdogArm, -1, -1, "round timeout "+cfg.LevelTimeout.String())
		}
		go func() {
			t := time.NewTicker(cfg.LevelTimeout)
			defer t.Stop()
			last := st.roundTick.Load()
			for {
				select {
				case <-watchdogStop:
					return
				case <-t.C:
					cur := st.roundTick.Load()
					if cur != last {
						last = cur
						continue
					}
					flight.Control(obs.FlightWatchdogFire, -1, int(cur),
						"no round completed within "+cfg.LevelTimeout.String())
					watchdogErr <- fmt.Errorf("%w: no round completed within %s",
						core.ErrLevelTimeout, cfg.LevelTimeout)
					net.Abort()
					return
				}
			}
		}()
	}

	errs := make([]error, cfg.Nodes)
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = nodes[i].loop()
		}(i)
	}
	wg.Wait()
	if watchdogStop != nil {
		close(watchdogStop)
	}

	info := st.info
	// Consequence errors (errAborted from a peer's teardown, comm
	// inbox-closed errors wrapping comm.ErrAborted) are filtered so the
	// original failure surfaces as the abort cause.
	var cause error
	aborted := net.Aborted()
	for _, err := range errs {
		if err == nil {
			continue
		}
		aborted = true
		if cause == nil && !errors.Is(err, errAborted) && !errors.Is(err, comm.ErrAborted) {
			cause = err
		}
	}
	if aborted {
		if cause == nil && watchdogErr != nil {
			select {
			case cause = <-watchdogErr:
			default:
			}
		}
		if cause == nil {
			cause = errors.New("algos: run aborted without a reported cause")
		}
		ae := &core.AbortError{
			Root:            opts.Root,
			Cause:           cause,
			CompletedLevels: append([]perf.LevelStats(nil), info.Levels...),
			Injections:      inj.Log(),
		}
		// Post-mortem, mirroring the BFS runner: stamp the abort, drain the
		// black box, write the dump when a path was configured, and attach
		// the newest complete checkpoint next to it.
		flight.Control(obs.FlightAbort, -1, len(info.Levels), cause.Error())
		d := flight.Dump()
		d.Aborted = true
		d.Cause = cause.Error()
		ae.FlightDump = d
		if cfg.FlightDump != "" {
			if werr := obs.WriteFlightDumpFile(cfg.FlightDump, d); werr == nil {
				ae.FlightPath = cfg.FlightDump
			}
		}
		if ck != nil {
			ae.Checkpoint = ck.Latest()
			ae.CheckpointPath = ck.writeAbort(cfg.FlightDump, ae.Checkpoint)
		}
		return nil, ae
	}

	model := perf.NewModel(net.Topo, cfg.Engine)
	info.Time = model.TotalTime(info.Levels)
	info.Rounds = len(info.Levels)
	info.NetworkBytes = net.Counters.NetworkBytes()
	info.NetworkMessages = net.Counters.NetworkMessages()
	info.MaxConnections = net.MaxConnectionCount()
	if inj != nil {
		info.Injections = inj.Log()
	}

	if m := cfg.Obs.MetricsOf(); m != nil {
		m.Counter("algos.runs").Inc()
		m.Counter("algos.rounds").Add(int64(info.Rounds))
		m.Counter("algos." + kernel + ".runs").Inc()
		m.Gauge("algos.workers").Set(int64(workers))
		net.MetricsInto(m)
	}
	if t := cfg.Obs.TraceOf(); t != nil {
		final := net.Counters.Snapshot()
		term := final.Sub(st.lastSnap)
		rt := buildTrace(opts, info, model, final, term)
		rt.CodecTraffic = net.CodecTraffic()
		t.Record(rt)
	}
	if sr := cfg.Obs.SpansOf(); sr != nil {
		sr.EndRun(info.Time, buildSpans(cfg.Engine, model, info, nodes, workers), nil)
	}
	if pb := cfg.Obs.ProgressOf(); pb != nil {
		var edges int64
		for _, s := range info.Levels {
			edges += s.FrontierEdges
		}
		pb.Publish(obs.LiveEvent{
			Kind: obs.EventRunDone, Root: int64(opts.Root), Kernel: kernel,
			GTEPS: info.MTEPS(edges) / 1e3,
		})
	}
	return info, nil
}

// buildTrace converts the run's per-round statistics into a RunTrace whose
// books balance (RunTrace.Reconcile): round wall times sum to the run's
// total and round byte counts plus termination traffic sum to the fabric's
// grand total.
func buildTrace(opts RunOptions, info *RunInfo, model perf.Model, final, term fabric.Snapshot) obs.RunTrace {
	rt := obs.RunTrace{
		Root:         int64(opts.Root),
		TotalSeconds: info.Time,

		TerminationCollectiveBytes: term.CollectiveBytes,
		TerminationWireBytes:       term.NetworkBytes(),
		TotalNetworkBytes:          final.NetworkBytes(),
	}
	rt.Levels = make([]obs.LevelSpan, 0, len(info.Levels))
	for _, s := range info.Levels {
		rt.Levels = append(rt.Levels, obs.LevelSpan{
			Level:            s.Level,
			Direction:        s.Direction,
			FrontierVertices: s.FrontierVertices,
			EdgesRelaxed:     s.FrontierEdges,
			WallSeconds:      model.LevelTime(s),
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
	return rt
}

// buildSpans lays the run's per-node generator/handler work out on the
// modelled timeline, exactly as the BFS runner does for its module
// goroutines: each round's spans start at the round's start and last
// bytes/bandwidth at the configured engine's module bandwidth.
func buildSpans(engine perf.Engine, model perf.Model, info *RunInfo, nodes []*nodeRun, workers int) []obs.ModuleSpan {
	bw := engine.Bandwidth()
	attributed := 0
	if workers > 1 {
		attributed = workers // attribute pool width only when fanned out
	}
	var spans []obs.ModuleSpan
	levelStart := 0.0
	for li, s := range info.Levels {
		for _, n := range nodes {
			if li >= len(n.spanLog) {
				continue
			}
			rw := n.spanLog[li]
			if rw.gen > 0 {
				spans = append(spans, obs.ModuleSpan{
					Node: n.ctx.ID, Module: obs.ModuleForwardGenerator, Level: rw.round,
					Start: levelStart, Dur: float64(rw.gen) / bw, Bytes: rw.gen,
					Workers: attributed,
				})
			}
			if rw.handler > 0 {
				spans = append(spans, obs.ModuleSpan{
					Node: n.ctx.ID, Module: obs.ModuleForwardHandler, Level: rw.round,
					Start: levelStart, Dur: float64(rw.handler) / bw, Bytes: rw.handler,
					Workers: attributed,
				})
			}
		}
		levelStart += model.LevelTime(s)
	}
	return spans
}

// roundWork is one node's module byte counts for one completed round.
type roundWork struct {
	round        int
	gen, handler int64
}

// nodeRun drives one node's SPMD loop.
type nodeRun struct {
	ctx        *NodeCtx
	algo       RoundAlgo
	ep         comm.Endpoint
	net        *comm.Network
	st         *runState
	maxRounds  int
	startRound int

	kernel   string
	root     int64
	progress *obs.ProgressBroker

	keepSpans bool
	spanLog   []roundWork

	flight *obs.FlightRecorder
	ck     *driverCkpt
}

func (n *nodeRun) loop() error {
	info := n.st.info
	// stage holds the round's outgoing messages between flushes. On an
	// abort whatever is still staged is dropped with it, never flushed.
	stage := stagePool.Get().(*comm.Stage)
	defer putStage(stage)
	for round := n.startRound; ; round++ {
		if round >= n.maxRounds {
			n.net.Abort()
			return fmt.Errorf("algos: node %d exceeded %d rounds without converging", n.ctx.ID, n.maxRounds)
		}

		// Node 0 opens the round's accounting window before the activity
		// allreduce, so every byte of the round — termination check, data,
		// post-round statistics — lands in exactly one round's delta. (The
		// window is safe: no peer traffic can be recorded before node 0
		// joins the allreduce below.)
		var before fabric.Snapshot
		if n.ctx.ID == 0 {
			before = n.net.Counters.Snapshot()
			n.flight.Control(obs.FlightRoundOpen, -1, round, "")
		}

		active := n.net.AllreduceSum(n.algo.Active())
		if n.net.Aborted() {
			return errAborted
		}
		if active == 0 {
			return nil
		}

		if n.ctx.ID == 0 && n.progress != nil {
			n.progress.Publish(obs.LiveEvent{
				Kind: obs.EventLevel, Root: n.root, Kernel: n.kernel,
				Level: round, Direction: "round",
				FrontierVertices: active,
			})
		}

		sentMsgs0, sentBytes0 := n.net.NodeSent(n.ctx.ID)

		n.ep.StartLevel(round, comm.ChanForward)
		n.net.Barrier()
		if n.net.Aborted() {
			return errAborted
		}

		var sentPairs, recvPairs, batches int64
		send := func(dst int, p comm.Pair) error {
			sentPairs++
			stage.Add(dst, p)
			if stage.Full() {
				return stage.Flush(n.ep, comm.ChanForward)
			}
			return nil
		}
		if d := n.net.ChaosDelay(chaos.KindDelayGenerator, n.ctx.ID, round); d > 0 {
			time.Sleep(d)
		}
		err := n.algo.Generate(round, send)
		if err == nil {
			err = stage.Flush(n.ep, comm.ChanForward)
		}
		if err != nil {
			n.net.Abort()
			return err
		}
		if err := n.ep.CloseChannel(comm.ChanForward); err != nil {
			n.net.Abort()
			return err
		}
		if d := n.net.ChaosDelay(chaos.KindDelayHandler, n.ctx.ID, round); d > 0 {
			time.Sleep(d)
		}
	recvLoop:
		for {
			ev := n.ep.Recv()
			switch ev.Type {
			case comm.EvError:
				n.net.Abort()
				return ev.Err
			case comm.EvData:
				recvPairs += int64(len(ev.Batch.Pairs))
				batches++
				err := n.algo.Handle(round, ev.Batch.Pairs)
				comm.PutPairs(ev.Batch.Pairs) // no kernel retains the slice
				if err != nil {
					n.net.Abort()
					return err
				}
			case comm.EvChannelClosed:
				break recvLoop
			}
		}
		if err := n.algo.EndRound(round); err != nil {
			n.net.Abort()
			return err
		}

		// Round statistics (same critical-path folding as the BFS engine).
		processed := (sentPairs + recvPairs) * comm.PairBytes
		sentMsgs1, sentBytes1 := n.net.NodeSent(n.ctx.ID)
		maxProcessed := n.net.AllreduceMax(processed)
		maxSent := n.net.AllreduceMax(sentBytes1 - sentBytes0)
		maxMsgs := n.net.AllreduceMax(sentMsgs1 - sentMsgs0)
		maxBatches := n.net.AllreduceMax(batches + 1)
		sumPairs := n.net.AllreduceSum(sentPairs)
		if n.net.Aborted() {
			return errAborted
		}
		if n.keepSpans {
			n.spanLog = append(n.spanLog, roundWork{
				round:   round,
				gen:     sentPairs * comm.PairBytes,
				handler: recvPairs * comm.PairBytes,
			})
		}
		if n.ctx.ID == 0 {
			after := n.net.Counters.Snapshot()
			rounds := 1
			if n.ep.Mode() == "relay" {
				rounds = 2
			}
			n.st.mu.Lock()
			info.Levels = append(info.Levels, perf.LevelStats{
				Level:                 round,
				Direction:             "round",
				FrontierVertices:      active,
				FrontierEdges:         sumPairs,
				MaxNodeProcessedBytes: maxProcessed,
				MaxNodeSentBytes:      maxSent,
				MaxNodeMessages:       maxMsgs,
				ModuleInvocations:     maxBatches,
				Net:                   after.Sub(before),
				Rounds:                rounds,
			})
			n.st.lastSnap = after
			n.st.mu.Unlock()
			n.st.roundTick.Add(1) // feed the watchdog: this round completed
			n.flight.Control(obs.FlightRoundClose, -1, round,
				fmt.Sprintf("active=%d pairs=%d", active, sumPairs))
		}

		// Round boundary: stage this node's checkpoint capture before
		// joining the next round's activity allreduce (see checkpoint.go
		// for why this window is race-free). A failed periodic file write
		// is fatal — silently continuing would lose the restart guarantee.
		if n.ck != nil && n.ck.every > 0 {
			if err := n.ck.stage(n, round); err != nil {
				n.net.Abort()
				return err
			}
		}
	}
}
