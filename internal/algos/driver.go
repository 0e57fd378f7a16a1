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
// vertices (folded per destination vertex at the sender when the kernel's
// fold is exact), the transport batches and delivers them, handlers fold
// them into local state, and a sum-allreduce decides termination.
//
// The driver's round is a level body on core.Machine, whose level loop the
// BFS engine runs too (see docs/ALGORITHMS.md): live per-round events on
// the ProgressBroker, a reconciling RunTrace plus generator, handler and
// relay module spans per run, chaos-injected faults with bounded retries,
// a per-round watchdog, straggler flags, and clean *core.AbortError
// teardown with the completed rounds attached.
package algos

import (
	"fmt"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// DefaultMaxRounds guards against non-converging algorithm bugs.
const DefaultMaxRounds = 100000

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

// Own reports whether this node owns global vertex v and, if so, v's local
// index (how a rooted kernel seeds its root).
func (c *NodeCtx) Own(v graph.Vertex) (local int64, ok bool) {
	if c.Part.Owner(v) != c.ID {
		return 0, false
	}
	return c.Part.Local(v), true
}

// RoundAlgo is one node's algorithm instance.
type RoundAlgo interface {
	// Active returns this node's pending work; the round runs only while
	// the machine-wide sum is positive.
	Active() int64
	// Generate emits this node's messages for the round on out — pair by
	// pair with out.Send, or fanned over the node's workers with
	// comm.Fanout — and retires the work it announced via Active. The
	// driver flushes out after it returns; an error from out means the run
	// is tearing down: return it promptly.
	Generate(round int, out *comm.Lane) error
	// Handle folds delivered pairs into local state. The driver has
	// rewritten every p[0] to the destination's local index. It hands a
	// batch over whole as Handle(0, batch) on the node goroutine, or splits
	// it by word-aligned vertex shard and calls Handle(shard, bucket) for
	// every shard concurrently. Handle may therefore write only the locals
	// it is handed (bitmap bits included) and per-shard state indexed by
	// shard (a tally sized ctx.Workers), and must not retain pairs.
	Handle(shard int, pairs []comm.Pair)
	// EndRound runs after all of the round's traffic has been handled
	// (symmetric across nodes; collectives are allowed here).
	EndRound(round int) error
	// State declares the node's checkpoint state, which the machine
	// captures at round boundaries and checks and loads on a resume. State
	// the constructor rebuilds, or a boundary always finds empty, stays out.
	State() ckpt.State
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
	// Args is the kernel's canonical argument string ("k=4", ...). A
	// checkpoint records it, and a resume whose Args differ is refused.
	Args string
	// Weights are a weighted kernel's edge weights (nil otherwise): a
	// checkpoint pins them with the graph, so a resume onto other weights
	// is refused.
	Weights *graph.Weights
	// Resume, when non-nil, reconstructs the ensemble from a round-boundary
	// checkpoint instead of starting fresh: every node's kernel state is
	// checked and loaded through its State and the loop re-enters at the
	// recorded round. The caller must rebuild the same graph and weights
	// (digest-checked) and pass an equivalent machine configuration
	// (fingerprint-checked) and identical kernel parameters
	// (Args-checked); Workers, observers, timeouts and the chaos
	// plan are host-side and may differ. The completed run's RunInfo is bitwise
	// identical to an uninterrupted run's.
	Resume *ckpt.Checkpoint

	// weighted marks a kernel that reads Weights, which it must then have;
	// roots are the vertices a rooted kernel starts from, which must lie in
	// the graph. Only the package's own kernels set them.
	weighted bool
	roots    []graph.Vertex
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

// Run executes one algorithm on the simulated machine described by cfg
// over graph g: newNode constructs each node's instance, and Run hands the
// instances back, in node order, for the kernel to gather its result from.
// It is the entry every round kernel goes through. Before it allocates
// anything per node, it refuses an invalid configuration, a missing graph,
// a weighted kernel's missing weights, weights that do not cover the graph,
// and roots outside it.
//
// The run executes on a core.Machine, whose level loop the BFS engine
// runs too: cfg.Chaos faults inject into every send, cfg.LevelTimeout arms
// a per-round watchdog, cfg.StragglerFactor flags slow nodes, cfg.Obs
// receives live round events, a reconciling RunTrace and module spans, and
// a torn-down run returns a *core.AbortError carrying the original cause
// and the completed rounds.
func Run[A RoundAlgo](cfg core.Config, g *graph.CSR, opts RunOptions, newNode func(ctx *NodeCtx) (A, error)) ([]A, *RunInfo, error) {
	if err := core.ValidateConfig(cfg); err != nil {
		return nil, nil, err
	}
	kernel := opts.Kernel
	if kernel == "" {
		kernel = "algo"
	}
	switch {
	case g == nil:
		return nil, nil, fmt.Errorf("algos: %s: nil graph", kernel)
	case opts.weighted && opts.Weights == nil:
		return nil, nil, fmt.Errorf("algos: %s: no edge weights", kernel)
	case opts.Weights != nil && int64(len(opts.Weights.W)) != g.NumEdges():
		return nil, nil, fmt.Errorf("algos: %s: %d edge weights for %d edges", kernel, len(opts.Weights.W), g.NumEdges())
	}
	for _, v := range opts.roots {
		if v < 0 || int64(v) >= g.N {
			return nil, nil, fmt.Errorf("algos: %s: root %d out of range [0, %d)", kernel, v, g.N)
		}
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}

	// The driver always lays vertices out round-robin (cfg.Partition is a
	// BFS-engine knob), so the checkpoint identity records that.
	m, err := core.OpenMachine(core.MachineSpec{
		Cfg: cfg, Graph: g, Weights: opts.Weights, Kernel: kernel, Root: opts.Root, Args: opts.Args, Unit: "round",
		Partition: core.PartitionRoundRobin.String(), Resume: opts.Resume,
	})
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()
	cfg = m.Cfg()

	part := graph.NewRoundRobin(g.N, cfg.Nodes)
	insts := make([]A, cfg.Nodes)
	nodes := make([]*nodeRun, cfg.Nodes)
	defer func() {
		for _, n := range nodes {
			if n != nil && n.comb != nil {
				n.comb.release()
			}
		}
	}()
	for i := range nodes {
		ctx := &NodeCtx{
			ID:      i,
			Part:    part,
			Sub:     graph.ExtractLocal(g, part, i),
			Net:     m.Net,
			Workers: cfg.Workers,
		}
		inst, err := newNode(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("algos: node %d: %w", i, err)
		}
		insts[i] = inst
		nodes[i] = &nodeRun{ctx: ctx, algo: inst, ep: m.Endpoint(i), part: part, maxRounds: maxRounds, all: nodes}
		if c, ok := any(inst).(combining); ok {
			nodes[i].comb = newCombiner(nodes[i].ep, part, c.pairFold())
		}
		nodes[i].per, nodes[i].shards = vertexShardWidth(ctx.Sub.NumVertices(), cfg.Workers)
	}

	if err := m.Drive(func(node int) core.Body { return nodes[node] }); err != nil {
		return nil, nil, err
	}

	info := &RunInfo{
		Levels:          m.Levels(),
		Rounds:          len(m.Levels()),
		Time:            m.Model.TotalTime(m.Levels()),
		NetworkBytes:    m.Net.Counters.NetworkBytes(),
		NetworkMessages: m.Net.Counters.NetworkMessages(),
		MaxConnections:  m.Net.MaxConnectionCount(),
		Injections:      m.Injections(),
	}
	if mr := cfg.Obs.MetricsOf(); mr != nil {
		var combined int64
		for _, n := range nodes {
			combined += n.combined
		}
		mr.Counter("algos.runs").Inc()
		mr.Counter("algos.rounds").Add(int64(info.Rounds))
		mr.Counter("algos." + kernel + ".runs").Inc()
		mr.Counter("algos.pairs.combined").Add(combined)
	}
	var edges int64
	for _, s := range info.Levels {
		edges += s.FrontierEdges
	}
	m.Finish(nil, obs.LiveEvent{GTEPS: info.MTEPS(edges) / 1e3})
	return insts, info, nil
}

// nodeRun is one node's round body (core.Body): what a round kernel does
// between the steps of the machine's level loop.
type nodeRun struct {
	ctx       *NodeCtx
	algo      RoundAlgo
	ep        comm.Endpoint
	maxRounds int

	// active is the round's statistics vector: the kernel's pending work.
	active [1]int64

	// lane stages the round's outgoing messages between flushes. On an
	// abort whatever is still staged is dropped with it, never flushed.
	lane comm.Lane
	// comb is where the lane hands a combining kernel's pairs (nil for the
	// others). shipped counts the pairs the node put on the wire this
	// round: node 0's Close sums it over all, the run's bodies, after the
	// loop's rendezvous. combined totals the pairs the node folded away
	// over the run.
	comb     *combiner
	shipped  int64
	combined int64
	all      []*nodeRun

	// The handler fan-out: the layout that localises delivered pairs (the
	// concrete type, so Local inlines), locals split into shards of per
	// (see vertexShardWidth), and the bucket scratch a fanned-out batch is
	// split into, capacity kept across batches.
	part    *graph.RoundRobinPartition
	per     int64
	shards  int
	buckets [][]comm.Pair
}

// State declares the node's checkpoint state: its kernel's, under "algo".
func (n *nodeRun) State() ckpt.State { return ckpt.State{ckpt.Object("algo", n.algo.State())} }

// roundChannels are the channels a round opens: a round's generator and
// handler are the forward pair.
var roundChannels = []comm.Channel{comm.ChanForward}

// Stats returns the kernel's pending work: the run goes on while the
// machine-wide sum is positive.
func (n *nodeRun) Stats(int) []int64 {
	n.active[0] = n.algo.Active()
	return n.active[:]
}

// Plan runs the round top-down on the forward channel, unless the round
// guard trips.
func (n *nodeRun) Plan(round int, _ []int64) (core.Plan, error) {
	if round >= n.maxRounds {
		return core.Plan{}, fmt.Errorf("algos: node %d exceeded %d rounds without converging", n.ctx.ID, n.maxRounds)
	}
	return core.Plan{Dir: core.TopDown, Label: "round", Channels: roundChannels}, nil
}

// Work runs the round's module work: Generate and flush (see generate),
// then Handle every delivered batch until the forward channel closes, then
// EndRound.
// The chaos delays stall the generator and the handler before their work,
// host time only, and both are timed for the straggler detector.
func (n *nodeRun) Work(round int, _ core.Plan) (core.LevelWork, error) {
	id, net := n.ctx.ID, n.ctx.Net
	start := time.Now()
	if d := net.ChaosDelay(chaos.KindDelayGenerator, id, round); d > 0 {
		time.Sleep(d)
	}
	sent, err := n.generate(round)
	if err == nil {
		err = n.ep.CloseChannel(comm.ChanForward)
	}
	if err != nil {
		return core.LevelWork{}, err
	}
	genNanos := int64(time.Since(start))

	start = time.Now()
	if d := net.ChaosDelay(chaos.KindDelayHandler, id, round); d > 0 {
		time.Sleep(d)
	}
	var recv, batches int64
recvLoop:
	for {
		ev := n.ep.Recv()
		switch ev.Type {
		case comm.EvError:
			return core.LevelWork{}, ev.Err
		case comm.EvData:
			recv += int64(len(ev.Batch.Pairs))
			batches++
			n.handle(ev.Batch.Pairs)
			comm.PutPairs(ev.Batch.Pairs) // no kernel retains the slice
		case comm.EvChannelClosed:
			break recvLoop
		}
	}
	handlerNanos := int64(time.Since(start))
	// This goroutine ran the node's relay duties inside Recv: charge the
	// bytes it re-batched as the Relay module's input, as BFS does.
	var relayed int64
	if r, ok := n.ep.(*comm.RelayEndpoint); ok {
		relayed = r.RelayedBytes()
	}
	if err := n.algo.EndRound(round); err != nil {
		return core.LevelWork{}, err
	}
	return core.LevelWork{
		ModuleWork: ckpt.ModuleWork{
			Bytes:       [4]int64{sent * comm.PairBytes, recv * comm.PairBytes, 0, relayed},
			Invocations: batches + 1,
		},
		Pairs:        sent,
		GenNanos:     genNanos,
		HandlerNanos: handlerNanos,
	}, nil
}

// generate runs the kernel's Generate through the round lane and returns
// the pairs it generated. The lane's chunks go to the endpoint, or, for a
// combined kernel, into the combiner, which then ships its one pair per
// touched vertex through the same lane.
func (n *nodeRun) generate(round int) (int64, error) {
	var to comm.Endpoint = n.ep
	if n.comb != nil {
		to = n.comb
	}
	n.lane.Open(to, comm.ChanForward)
	err := n.algo.Generate(round, &n.lane)
	if err == nil {
		err = n.lane.Flush()
	}
	generated := n.lane.Sent
	if err == nil && n.comb != nil {
		n.lane.Open(n.ep, comm.ChanForward)
		if err = n.comb.drain(&n.lane); err == nil {
			err = n.lane.Flush()
		}
	}
	n.shipped = n.lane.Sent
	n.combined += generated - n.shipped
	n.lane.Release()
	return generated, err
}

// Close counts the pairs the round generated machine-wide as the edges it
// relaxed, and the pairs it put on the wire as sent.
func (n *nodeRun) Close(s perf.LevelStats, fold core.LevelWork) (perf.LevelStats, string) {
	s.FrontierEdges = fold.Pairs
	var shipped int64
	for _, o := range n.all {
		shipped += o.shipped
	}
	return s, fmt.Sprintf("active=%d pairs=%d sent=%d", s.FrontierVertices, fold.Pairs, shipped)
}

// handle localises one delivered batch — p[0] becomes the destination's
// local index — and folds it: whole on the node goroutine at width 1 or
// below handleFanoutMin pairs, else bucketed by vertex shard in one serial
// pass and the buckets folded concurrently. A vertex's pairs all land in
// one bucket in batch order, so its fold order equals the serial pair
// order, and word-aligned shards never share a bitmap word. One bucketing
// pass keeps the scan work O(pairs), not O(workers x pairs).
func (n *nodeRun) handle(pairs []comm.Pair) {
	part := n.part
	if n.shards <= 1 || len(pairs) < handleFanoutMin {
		for i := range pairs {
			pairs[i][0] = graph.Vertex(part.Local(pairs[i][0]))
		}
		n.algo.Handle(0, pairs)
		return
	}
	n.buckets = takeShards(n.buckets, n.shards)
	for _, p := range pairs {
		l := part.Local(p[0])
		p[0] = graph.Vertex(l)
		n.buckets[l/n.per] = append(n.buckets[l/n.per], p)
	}
	applyBuckets(n.buckets, n.algo.Handle)
}

// gather assembles one global per-vertex array from every node's local
// one, walking each node's locals in order through Part.Global — no
// per-vertex division. Run has joined the node goroutines, so node state
// is read plainly.
func gather[K, T any](part graph.Partition, nodes []K, local func(K) []T) []T {
	var n int
	for _, k := range nodes {
		n += len(local(k))
	}
	out := make([]T, n)
	for id, k := range nodes {
		for j, x := range local(k) {
			out[part.Global(id, int64(j))] = x
		}
	}
	return out
}
