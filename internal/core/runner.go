package core

import (
	"fmt"
	"slices"

	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// Result is one BFS run's output: the validated-able parent map plus the
// measurements the evaluation consumes.
type Result struct {
	Root   graph.Vertex
	Parent []graph.Vertex

	// Levels holds the per-level statistics in traversal order.
	Levels []perf.LevelStats
	// Visited counts discovered vertices (including the root).
	Visited int64
	// TraversedEdges is the Graph500 edge count of the discovered
	// component (undirected edges counted once).
	TraversedEdges int64

	// Time is the modelled wall-clock seconds of the BFS kernel; GTEPS is
	// TraversedEdges / Time / 1e9.
	Time  float64
	GTEPS float64

	// BottomUpLevels counts levels the policy ran bottom-up.
	BottomUpLevels int
	// MaxConnections is the peak per-node MPI connection count.
	MaxConnections int
}

// Runner executes BFS runs of one graph on one machine configuration. The
// graph is partitioned once; Run may be called repeatedly with different
// roots (the Graph500 harness uses 64).
type Runner struct {
	cfg  Config
	g    *graph.CSR
	part graph.Partition

	subs []*graph.LocalSubgraph

	// hubs is the hub prefetch (nil when disabled).
	hubs *hubs

	// Per-run state: the machine the current (or most recent) run executes
	// on and its network (cached for the per-edge paths). The machine is
	// offered to the next run for recycling and the node states are reset
	// in place (docs/ARCHITECTURE.md, "What a Runner keeps across roots").
	m     *Machine
	net   *comm.Network
	nodes []*nodeState

	// digest is the graph's checkpoint digest, computed by the first machine
	// that needed it ("" until then) and handed to every later one.
	digest string

	// flight is the always-on black-box recorder, kept across roots so the
	// run index advances. Drained into a post-mortem dump when a run aborts
	// (see AbortError.FlightDump).
	flight *obs.FlightRecorder
}

// NewRunner partitions g over the configured machine and validates the
// configuration against the architectural constraints (CPE SPM budgets).
func NewRunner(cfg Config, g *graph.CSR) (*Runner, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: %d nodes", cfg.Nodes)
	}
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}

	shape, err := shapeFor(cfg)
	if err != nil {
		return nil, err
	}
	if err := validateEngine(cfg, shape); err != nil {
		return nil, err
	}

	var part graph.Partition
	switch cfg.Partition {
	case PartitionBlock:
		part = graph.NewBlock(g.N, cfg.Nodes)
	case PartitionDegreeBalanced:
		part = graph.NewDegreeBalanced(g, cfg.Nodes)
	default:
		part = graph.NewRoundRobin(g.N, cfg.Nodes)
	}
	r := &Runner{
		cfg:    cfg,
		g:      g,
		part:   part,
		subs:   make([]*graph.LocalSubgraph, cfg.Nodes),
		hubs:   newHubs(cfg, g, part),
		flight: cfg.Obs.FlightOf(),
	}
	if r.flight == nil {
		// The runner's own black box serves every run it makes: each ring
		// is allocated once, whole, rather than doubling inside whichever
		// run first fills it.
		r.flight = obs.NewFlightRecorder(0)
		r.flight.AllocateWhole()
	}
	for node := 0; node < cfg.Nodes; node++ {
		r.subs[node] = graph.ExtractLocal(g, part, node)
	}
	return r, nil
}

// Config returns the runner's configuration (with defaults applied).
func (r *Runner) Config() Config { return r.cfg }

// Flight returns the runner's black-box recorder (never nil): dump it
// after a run — aborted or not — for the event-level record of what the
// machine did.
func (r *Runner) Flight() *obs.FlightRecorder { return r.flight }

// Run executes one rooted BFS and returns its result. The error reports a
// simulated machine failure (SPM overflow was caught at construction; MPI
// memory exhaustion surfaces here).
func (r *Runner) Run(root graph.Vertex) (*Result, error) {
	return r.run(root, nil)
}

// Resume continues a checkpointed BFS run: the ensemble is reconstructed
// from the checkpoint and the loop re-enters at the recorded boundary. The
// runner must have been built over the same graph (digest-checked) and an
// equivalent machine configuration (fingerprint-checked); Workers, observers,
// timeouts and the chaos plan may differ — they are host-side. The
// completed run's Result is bitwise identical to an uninterrupted run's.
func (r *Runner) Resume(c *ckpt.Checkpoint) (*Result, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	return r.run(graph.Vertex(c.Root), c)
}

// run executes one rooted BFS, from scratch (resume == nil) or from a
// checkpoint, on a machine that recycles the previous run's when that one
// finished cleanly (MachineSpec.Recycle).
func (r *Runner) run(root graph.Vertex, resume *ckpt.Checkpoint) (*Result, error) {
	if root < 0 || int64(root) >= r.g.N {
		return nil, fmt.Errorf("core: root %d out of range [0, %d)", root, r.g.N)
	}
	if r.nodes == nil {
		// First run: everything below is allocated once and reset per run.
		r.nodes = make([]*nodeState, r.cfg.Nodes)
		for node := range r.nodes {
			r.nodes[node] = newNodeState(r, node)
		}
	}
	m, err := OpenMachine(MachineSpec{
		Cfg: r.cfg, Graph: r.g, Kernel: KernelBFS, Root: root, Unit: "level",
		Partition: r.cfg.Partition.String(), Digest: r.digest, Flight: r.flight, Resume: resume,
		Shared: r.shared, Recycle: r.m,
	})
	if err != nil {
		return nil, err
	}
	r.digest = m.config.GraphDigest
	defer func() {
		m.Close()
		r.net = nil
	}()
	r.m, r.net = m, m.Net

	r.hubs.reset()
	for node, ns := range r.nodes {
		ns.resetRun(m.Endpoint(node))
	}

	if resume == nil {
		// Seed the root (a resumed run's frontier came from the checkpoint).
		owner := r.part.Owner(root)
		rootLocal := r.part.Local(root)
		r.nodes[owner].parent[rootLocal] = int64(root)
		r.nodes[owner].curr.Set(rootLocal)
	}

	if err := m.Drive(func(node int) Body { return r.nodes[node] }); err != nil {
		return nil, err
	}
	return r.assemble(root), nil
}

// shared declares BFS's machine-wide checkpoint state: the direction policy
// (node 0's replica, restored into every one) and the hubs' state.
func (r *Runner) shared() ckpt.State {
	policy := &r.nodes[0].policyReplica.state
	return append(ckpt.State{ckpt.Enum("policy", policy, BottomUp+1).Then(func() {
		for _, ns := range r.nodes {
			ns.policyReplica.state = *policy
		}
	})}, r.hubs.state()...)
}

// LastInjections returns the faults actually injected during the most
// recent Run, deterministically sorted; nil when chaos is disabled. Same
// plan, same configuration, same root → same log, whether or not the run
// completed.
func (r *Runner) LastInjections() []chaos.Fault { return r.m.Injections() }

// LastCheckpoint returns the newest fully staged checkpoint of the current
// or most recent run (nil before the first boundary or with checkpointing
// disabled).
func (r *Runner) LastCheckpoint() *ckpt.Checkpoint { return r.m.LastCheckpoint() }

// CheckpointJSON implements obs.CheckpointSource over LastCheckpoint.
func (r *Runner) CheckpointJSON() ([]byte, bool) { return r.m.CheckpointJSON() }

// nodeState is BFS's level body: Stats, Plan, Work, Close and State are
// Algorithm 1's steps between the ones the machine's level loop takes.

// Stats folds the arriving frontier into the visited snapshot before any
// module work (the bottom-up generator scans its complement, so the probe
// set is fixed at level start) and returns the runtime statistics
// TRAVERSAL_POLICY consumes: the frontier's vertices nf and edges mf, and
// the unexplored edges mu.
func (ns *nodeState) Stats(int) []int64 {
	ns.visited.Or(ns.curr)
	var nf, mf int64
	for local := ns.curr.NextSet(0); local >= 0; local = ns.curr.NextSet(local + 1) {
		nf++
		mf += ns.sub.Degree(local)
	}
	ns.visitedDeg += mf
	ns.stats = [3]int64{nf, mf, ns.localEdges - ns.visitedDeg}
	return ns.stats[:]
}

// Plan runs the direction policy and, with hub prefetch, the hub frontier
// exchange. Every node evaluates the policy on identical inputs; node 0's
// replica is authoritative for reporting, the others track the same state
// machine.
func (ns *nodeState) Plan(_ int, sums []int64) (Plan, error) {
	nf, mf, mu := sums[0], sums[1], sums[2]
	dir := ns.policyReplica.Next(nf, mf, mu, ns.r.g.N)
	if err := ns.r.hubs.exchange(ns.r.net, ns.id, ns.curr); err != nil {
		return Plan{}, err
	}
	return Plan{Dir: dir, Label: dir.String(), Channels: levelChannels[dir], Fold: levelFold[dir], Edges: mf}, nil
}

// Close adds the level's per-module maxima over the row and names its
// direction (the policy's state, which Plan just set) and frontier in the
// flight record.
func (ns *nodeState) Close(s perf.LevelStats, row []ckpt.ModuleWork) (perf.LevelStats, string) {
	crit, _ := critical(row)
	s.ModuleBytes = slices.Clone(crit.Bytes[:])
	return s, fmt.Sprintf("dir=%s frontier=%d edges=%d", ns.policyReplica.State(), s.FrontierVertices, s.FrontierEdges)
}

// assemble merges per-node results into the global Result: one pass per
// node in local order gathers its parents and, for the visited ones, the
// vertex count and degree sum (each undirected edge of the component
// counted once from each endpoint). Drive has joined the node goroutines,
// so the parent arrays are read plainly.
func (r *Runner) assemble(root graph.Vertex) *Result {
	res := &Result{
		Root:   root,
		Parent: make([]graph.Vertex, r.g.N),
		Levels: r.m.Levels(),
	}
	var directed int64
	for node, ns := range r.nodes {
		for j, p := range ns.parent {
			res.Parent[r.part.Global(node, int64(j))] = graph.Vertex(p)
			if p != int64(graph.NoVertex) {
				res.Visited++
				directed += ns.sub.Degree(int64(j))
			}
		}
	}
	res.TraversedEdges = directed / 2
	res.Time = r.m.Model.TotalTime(res.Levels)
	res.GTEPS = r.m.Model.GTEPS(res.TraversedEdges, res.Levels)
	for _, s := range res.Levels {
		if s.Direction == BottomUp.String() {
			res.BottomUpLevels++
		}
	}
	res.MaxConnections = r.net.MaxConnectionCount()
	r.observe(res)
	return res
}
