package core

import (
	"fmt"
	"math/bits"
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

	// Hub prefetch state (nil when disabled): hubs are the top-degree
	// vertices machine-wide, slot i the i-th by degree. hubVisited is the
	// replicated slot bitmap of hubs discovered so far, grown from the
	// paper's per-level allgather and stored in checkpoints. The
	// generators test vertex-indexed bitmaps instead, one bit per scanned
	// neighbour: hubs.Members(), hubFrontier (hubs in the current
	// frontier) and hubSeen (top-down-budget hubs already visited), which
	// node 0 refreshes from the allgather. ownHubs[node] lists each node's
	// own hubs, so a node builds its allgather words without walking its
	// frontier.
	hubs         *graph.HubSet
	hubsTopDown  int
	hubsBottomUp int
	hubVisited   *graph.Bitmap
	hubFrontier  *graph.Bitmap
	hubSeen      *graph.Bitmap
	ownHubs      [][]ownHub

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
		flight: flightFor(cfg.Obs),
	}
	for node := 0; node < cfg.Nodes; node++ {
		r.subs[node] = graph.ExtractLocal(g, part, node)
	}

	if cfg.HubPrefetch {
		td := cfg.HubsTopDown
		bu := cfg.HubsBottomUp
		if td == 0 {
			td = scaledHubCount(DefaultHubsTopDown, cfg.Nodes, g.N)
		}
		if bu == 0 {
			bu = scaledHubCount(DefaultHubsBottomUp, cfg.Nodes, g.N)
		}
		if td > bu {
			td = bu
		}
		r.hubs = graph.NewHubSet(graph.SelectHubs(g, bu), g.N)
		r.hubsTopDown = td
		r.hubsBottomUp = r.hubs.Len()
		r.ownHubs = make([][]ownHub, cfg.Nodes)
		for slot := 0; slot < r.hubs.Len(); slot++ {
			v := r.hubs.At(slot)
			node := part.Owner(v)
			r.ownHubs[node] = append(r.ownHubs[node], ownHub{local: part.Local(v), slot: slot})
		}
	}
	return r, nil
}

// ownHub is one hub of a node: its local index there and its slot.
type ownHub struct {
	local int64
	slot  int
}

// scaledHubCount turns the paper's per-node hub budget into a total, capped
// so hubs stay a small minority of the graph on scaled-down instances.
func scaledHubCount(perNode, nodes int, n int64) int {
	total := int64(perNode) * int64(nodes)
	if cap := n / 16; total > cap {
		total = cap
	}
	if total < 1 {
		total = 1
	}
	return int(total)
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
		if r.hubs != nil {
			r.hubVisited = graph.NewBitmap(int64(r.hubsBottomUp))
			r.hubFrontier = graph.NewBitmap(r.g.N)
			r.hubSeen = graph.NewBitmap(r.g.N)
		}
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

	if r.hubs != nil {
		r.hubVisited.Reset()
		r.hubFrontier.Reset()
		r.hubSeen.Reset()
	}
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
// (node 0's replica, restored into every one) and the hub-visited bitmap,
// from which a restore rebuilds hubSeen; exchangeHubs rebuilds hubFrontier.
func (r *Runner) shared() ckpt.State {
	policy := &r.nodes[0].policyReplica.state
	s := ckpt.State{ckpt.Enum("policy", policy, BottomUp+1).Then(func() {
		for _, ns := range r.nodes {
			ns.policyReplica.state = *policy
		}
	})}
	if r.hubs != nil {
		s = append(s, ckpt.Words("hub_visited", r.hubVisited).Then(func() {
			for slot := r.hubVisited.NextSet(0); slot >= 0 && slot < int64(r.hubsTopDown); slot = r.hubVisited.NextSet(slot + 1) {
				r.hubSeen.Set(int64(r.hubs.At(int(slot))))
			}
		}))
	}
	return s
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
	if ns.r.hubs != nil {
		if err := ns.exchangeHubs(); err != nil {
			return Plan{}, err
		}
	}
	return Plan{Dir: dir, Label: dir.String(), Channels: levelChannels[dir], Edges: mf}, nil
}

// Close adds the level's per-module maxima and names its direction (the
// policy's state, which Plan just set) and frontier in the flight record.
func (ns *nodeState) Close(s perf.LevelStats, fold LevelWork) (perf.LevelStats, string) {
	s.ModuleBytes = slices.Clone(fold.Bytes[:])
	return s, fmt.Sprintf("dir=%s frontier=%d edges=%d", ns.policyReplica.State(), s.FrontierVertices, s.FrontierEdges)
}

// exchangeHubs allgathers the hub slots in the current frontier and folds
// them into the replicated hub state: node 0 rebuilds hubFrontier, adds the
// slots to hubVisited and the top-down-budget ones to hubSeen, and the
// level loop's rendezvous before Work publishes all three to every node
// before module work reads them.
func (ns *nodeState) exchangeHubs() error {
	r := ns.r
	words := ns.localHubWords()
	result, err := r.net.AllgatherOr(words, true)
	if err != nil {
		return err
	}
	if r.net.Aborted() {
		return ErrAborted
	}
	if ns.id == 0 {
		r.hubFrontier.Reset()
		for wi, w := range result {
			for ; w != 0; w &= w - 1 {
				slot := wi<<6 + bits.TrailingZeros64(w)
				v := int64(r.hubs.At(slot))
				r.hubFrontier.Set(v)
				r.hubVisited.Set(int64(slot))
				if slot < r.hubsTopDown {
					r.hubSeen.Set(v)
				}
			}
		}
	}
	return nil
}

// localHubWords returns the slot bitmap words of this node's own frontier
// hubs, or nil when it has none (triggering the one-byte empty-flag
// gather).
func (ns *nodeState) localHubWords() []uint64 {
	bm := ns.hubWords
	bm.Reset()
	any := false
	for _, h := range ns.r.ownHubs[ns.id] {
		if ns.curr.Get(h.local) {
			bm.Set(int64(h.slot))
			any = true
		}
	}
	if !any {
		return nil
	}
	return bm.Words()
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
