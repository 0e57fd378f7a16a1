package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"swbfs/internal/algos"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/fabric"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// workload is one set of inputs and one machine. The names are fixed: later
// issues cite them.
type workload struct {
	Name string
	// Why says which layers the workload loads and what it predicts no
	// change for; BENCHMARK.json carries the same line.
	Why   string
	BFS   bool // rooted BFS ops; otherwise one op is WCC then PageRank
	Scale int
	// Ops is the length of one pass; Warmup ops run untimed before it.
	Ops, Warmup int
	Config      core.Config
}

const (
	pagerankIterations = 10
	pagerankDamping    = 0.85
)

// workloads returns the four workloads, or their -quick shapes (scale 10,
// 4 nodes, 3 ops) that the tier-1 test runs.
func workloads(quick bool) []workload {
	relay16 := func() core.Config {
		c := core.DefaultConfig(16) // relay + CPE + hub prefetch + small-message MPE
		c.SuperNodeSize = 4         // 4 super nodes, relay groups 4x4
		c.Workers = 1
		return c
	}

	hybrid := relay16()

	relay := relay16()
	relay.DirectionOptimized = false
	// Adaptive on every channel is deterministic only because no level runs
	// bottom-up: there are no arrival-ordered forward replies.
	relay.Codec = comm.AdaptiveCodec{}

	direct := core.DefaultConfig(64)
	direct.SuperNodeSize = 8
	direct.Transport = core.TransportDirect
	direct.DirectionOptimized = false
	direct.Workers = 1

	kernels := relay16()
	kernels.Workers = 2

	ws := []workload{
		{
			Name: "bfs-hybrid", BFS: true, Scale: 18, Ops: 200, Warmup: 4, Config: hybrid,
			Why: "paper's production config, CSR beyond LLC: bottom-up scan, hub bitmaps, collectives and validation do the work; comm moves 1 B/edge, so a comm or codec change must show no move here",
		},
		{
			Name: "bfs-topdown-relay", BFS: true, Scale: 17, Ops: 104, Warmup: 4, Config: relay,
			Why: "every edge becomes a wire pair through adaptive encode and the relay re-batch in large messages: the workload on which codec, relay and inbox work shows",
		},
		{
			Name: "bfs-topdown-direct-n64", BFS: true, Scale: 16, Ops: 104, Warmup: 4, Config: direct,
			Why: "same comm layer, no relay, 63 peers and tiny messages: per-batch, End-marker, collective and hub-lookup costs dominate, so a large-batch win that taxes small messages shows as a loss",
		},
		{
			Name: "kernels-wcc-pagerank", Scale: 16, Ops: 12, Warmup: 1, Config: kernels,
			Why: "the second round engine (algos.Run) and the Workers=2 fan-out that no BFS workload touches; says whether folding the two engines cost anything",
		},
	}
	if quick {
		for i := range ws {
			w := &ws[i]
			w.Scale, w.Ops, w.Warmup = 10, 3, 1
			w.Config.Nodes, w.Config.SuperNodeSize = 4, 2
		}
	}
	return ws
}

func workloadByName(name string, quick bool) (workload, error) {
	for _, w := range workloads(quick) {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// instance is a workload set up for one seed: the graph, the sampled roots
// and (for BFS) the partitioned runner.
type instance struct {
	w      workload
	g      *graph.CSR
	roots  []graph.Vertex
	runner *core.Runner

	// Oracles for the first op, prepared outside every timed interval.
	refLevels []int64        // core.ReferenceBFS levels of roots[0]
	refLabels []graph.Vertex // union-find component labels

	// mutate, when set, tampers with an op's output before it is checked;
	// the test uses it to prove a corrupted parent map is counted.
	mutate func(op int, out *opOutput)
}

// setupTimes is the host time of each set-up stage.
type setupTimes struct {
	kronecker, csr, sampleRoots, newRunner time.Duration
	generatedEdges                         int64
	csrAllocs                              uint64
}

func (s setupTimes) total() time.Duration {
	return s.kronecker + s.csr + s.sampleRoots + s.newRunner
}

// setup builds the workload's inputs from the seed — Kronecker seed and root
// sample both — recording one span per stage when traced. Oracle preparation
// is not part of it.
func setup(w workload, seed int64, t *tracer, parent int) (*instance, setupTimes, error) {
	var st setupTimes
	var err error
	inst := &instance{w: w}
	setupSpan := t.open(parent, -1, "benchmark", "setup", time.Now())

	kc := graph.KroneckerConfig{Scale: w.Scale, Seed: seed}
	st.generatedEdges = kc.NumEdges()
	var edges []graph.Edge
	st.kronecker = t.timed(setupSpan, -1, "graph", "graph.kronecker", func() {
		edges, err = graph.GenerateKronecker(kc)
	})
	if err != nil {
		return nil, st, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st.csr = t.timed(setupSpan, -1, "graph", "graph.csr", func() {
		inst.g, err = graph.BuildCSR(kc.NumVertices(), edges)
	})
	runtime.ReadMemStats(&after)
	st.csrAllocs = after.Mallocs - before.Mallocs
	if err != nil {
		return nil, st, err
	}

	if w.BFS {
		st.sampleRoots = t.timed(setupSpan, -1, "graph500", "graph500.sample_roots", func() {
			inst.roots, err = sampleGiantRoots(inst.g, w.Ops, seed)
		})
		if err != nil {
			return nil, st, err
		}
		st.newRunner = t.timed(setupSpan, -1, "core", "core.newrunner", func() {
			inst.runner, err = core.NewRunner(w.Config, inst.g)
		})
		if err != nil {
			return nil, st, err
		}
	}
	t.finish(setupSpan, time.Now())
	return inst, st, nil
}

// sampleGiantRoots draws search keys with graph500.SampleRoots and keeps the
// first `count` that lie in the component of the highest-degree vertex. A
// Kronecker graph strews a few percent of its non-isolated vertices over tiny
// components; a root there is a BFS of a handful of edges, and a single one
// decides the harmonic-mean GTEPS of the whole run. Keeping every op a
// traversal of the giant component makes each metric a property of the
// engine, not of how many such roots the seed happened to draw.
func sampleGiantRoots(g *graph.CSR, count int, seed int64) ([]graph.Vertex, error) {
	candidates, err := graph500.SampleRoots(g, 2*count, seed)
	if err != nil {
		return nil, err
	}
	_, hub := g.MaxDegree()
	_, level := core.ReferenceBFS(g, hub)
	roots := make([]graph.Vertex, 0, count)
	for _, v := range candidates {
		if level[v] >= 0 && len(roots) < count {
			roots = append(roots, v)
		}
	}
	if len(roots) < count {
		return nil, fmt.Errorf("only %d of %d sampled roots lie in the giant component, need %d", len(roots), len(candidates), count)
	}
	return roots, nil
}

// prepareOracles computes what the first op is checked against.
func (inst *instance) prepareOracles() {
	if inst.w.BFS {
		_, inst.refLevels = core.ReferenceBFS(inst.g, inst.roots[0])
	} else {
		inst.refLabels = unionFindLabels(inst.g)
	}
}

// unionFindLabels is the benchmark's own WCC oracle: union by smaller ID
// with path halving, so every vertex ends labelled with the smallest vertex
// of its component — the labelling algos.WCC converges to.
func unionFindLabels(g *graph.CSR) []graph.Vertex {
	parent := make([]graph.Vertex, g.N)
	for i := range parent {
		parent[i] = graph.Vertex(i)
	}
	find := func(v graph.Vertex) graph.Vertex {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for u := graph.Vertex(0); int64(u) < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if ru, rv := find(u), find(v); ru < rv {
				parent[rv] = ru
			} else if rv < ru {
				parent[ru] = rv
			}
		}
	}
	labels := make([]graph.Vertex, g.N)
	for v := range labels {
		labels[v] = find(graph.Vertex(v))
	}
	return labels
}

// modelled is everything the simulated machine reports about one op. Two
// runs of the same op must produce equal values, field for field.
type modelled struct {
	Levels  []perf.LevelStats // WCC rounds then PageRank iterations for the kernels
	Seconds float64           // modelled kernel time
	Edges   int64             // traversed edges (BFS) or edges x rounds (kernels)
	MaxConn int
	// WCCRounds is the number of leading Levels that are WCC rounds.
	WCCRounds int
}

func (m *modelled) netBytes() (b int64) {
	for _, l := range m.Levels {
		b += l.Net.NetworkBytes()
	}
	return b
}

func (m *modelled) netMessages() (n int64) {
	for _, l := range m.Levels {
		n += l.Net.Messages[fabric.IntraSuper] + l.Net.Messages[fabric.InterSuper]
	}
	return n
}

// opOutput is what one op produced, before checking.
type opOutput struct {
	parent []graph.Vertex // BFS
	labels []graph.Vertex // kernels
	ranks  []float64
	m      modelled
}

// opSample is one op of a pass: its host times, its modelled statistics and
// whether its output passed every check.
type opSample struct {
	kernel, validate time.Duration
	m                modelled
	err              error

	// levelMs is the host duration of each level (or round) of a traced op,
	// in the order of m.Levels; empty when untraced or when events were lost.
	levelMs []float64
}

// kernelsFirst holds the first kernels op's outputs; later ops must equal
// them bitwise.
type kernelsFirst struct {
	labels []graph.Vertex
	ranks  []float64
}

// pass runs ops of one instance in a closed loop: one client, one op at a
// time, each op checked. The untraced pass leaves obs, col and t nil; the
// traced pass feeds the observer and hangs every op's spans under parent.
type pass struct {
	inst   *instance
	runner *core.Runner // built with obs attached when traced
	obs    *obs.Observer
	col    *collector
	t      *tracer
	parent int
	first  kernelsFirst
}

// runOp executes op number i and checks its output.
func (p *pass) runOp(i int) opSample {
	opSpan := p.t.open(p.parent, i, "benchmark", "op", time.Now())
	defer func() { p.t.finish(opSpan, time.Now()) }()
	if p.inst.w.BFS {
		return p.bfsOp(i, opSpan)
	}
	return p.kernelsOp(i, opSpan)
}

// bfsOp is one rooted BFS (the kernel time) and its Graph500 validation.
func (p *pass) bfsOp(i, opSpan int) (s opSample) {
	inst, t := p.inst, p.t
	root := inst.roots[i]
	start := time.Now()
	res, err := p.runner.Run(root)
	end := time.Now()
	s.kernel = end.Sub(start)
	if err != nil {
		s.err = err
		return s
	}
	run := t.add(opSpan, i, "core", "core.run", start, end, map[string]int64{
		"levels": int64(len(res.Levels)), "traversed_edges": res.TraversedEdges,
	})
	if runs := p.col.take(); len(runs) == 1 {
		s.levelMs = addLevelSpans(t, run, i, "core", start, end, runs[0])
	}
	out := opOutput{parent: res.Parent, m: modelled{
		Levels: res.Levels, Seconds: res.Time, Edges: res.TraversedEdges, MaxConn: res.MaxConnections,
	}}
	if inst.mutate != nil {
		inst.mutate(i, &out)
	}
	s.m = out.m

	var levels []int64
	s.validate = t.timed(opSpan, i, "graph500", "graph500.validate", func() {
		levels, s.err = graph500.ValidateParallel(inst.g, root, out.parent, 0)
	})
	if s.err == nil && i == 0 && inst.refLevels != nil && !slices.Equal(levels, inst.refLevels) {
		s.err = fmt.Errorf("root %d: BFS levels differ from core.ReferenceBFS", root)
	}
	return s
}

// kernelsOp is WCC to fixpoint then PageRank (together the kernel time) and
// the comparison of their outputs.
func (p *pass) kernelsOp(i, opSpan int) (s opSample) {
	inst, t := p.inst, p.t
	cfg := inst.w.Config
	cfg.Obs = p.obs
	start := time.Now()
	wcc, err := algos.WCC(cfg, inst.g)
	mid := time.Now()
	if err != nil {
		s.err = err
		return s
	}
	pr, err := algos.PageRank(cfg, inst.g, pagerankIterations, pagerankDamping)
	end := time.Now()
	if err != nil {
		s.err = err
		return s
	}
	s.kernel = end.Sub(start)
	wccSpan := t.add(opSpan, i, "algos", "algos.wcc", start, mid, nil)
	prSpan := t.add(opSpan, i, "algos", "algos.pagerank", mid, end, nil)
	if runs := p.col.take(); len(runs) == 2 {
		s.levelMs = addLevelSpans(t, wccSpan, i, "algos", start, mid, runs[0])
		s.levelMs = append(s.levelMs, addLevelSpans(t, prSpan, i, "algos", mid, end, runs[1])...)
	}

	out := opOutput{labels: wcc.Label, ranks: pr.Rank}
	out.m.Levels = append(append([]perf.LevelStats(nil), wcc.Info.Levels...), pr.Info.Levels...)
	out.m.WCCRounds = len(wcc.Info.Levels)
	out.m.Seconds = wcc.Info.Time + pr.Info.Time
	out.m.MaxConn = max(wcc.Info.MaxConnections, pr.Info.MaxConnections)
	for _, l := range out.m.Levels {
		out.m.Edges += l.FrontierEdges // pairs generated: edges x rounds
	}
	if inst.mutate != nil {
		inst.mutate(i, &out)
	}
	s.m = out.m

	s.validate = t.timed(opSpan, i, "benchmark", "benchmark.check_kernels", func() {
		s.err = inst.checkKernels(&out, &p.first)
	})
	return s
}

// checkKernels validates a WCC+PageRank op. Every op: labels are constant
// along every edge and never exceed the vertex they label, and rank mass is
// conserved. The first op's labels must also equal the union-find oracle;
// every later op must equal the first bitwise.
func (inst *instance) checkKernels(out *opOutput, first *kernelsFirst) error {
	g := inst.g
	for u := graph.Vertex(0); int64(u) < g.N; u++ {
		if out.labels[u] > u {
			return fmt.Errorf("WCC label of vertex %d is %d, not a minimum", u, out.labels[u])
		}
		for _, v := range g.Neighbors(u) {
			if out.labels[u] != out.labels[v] {
				return fmt.Errorf("WCC labels differ across edge (%d, %d)", u, v)
			}
		}
	}
	// PageRank ships fixed-point contributions (2^-40 resolution, truncated),
	// so each directed edge may shed up to one unit of mass per iteration.
	tolerance := 1e-9 + float64(g.NumEdges())*pagerankIterations/float64(int64(1)<<40)
	if mass := sum(out.ranks); math.Abs(mass-1) > tolerance {
		return fmt.Errorf("PageRank mass %.12f is not 1 within %.1e", mass, tolerance)
	}

	if first.labels == nil {
		if inst.refLabels != nil && !slices.Equal(out.labels, inst.refLabels) {
			return fmt.Errorf("WCC labels differ from the union-find oracle")
		}
		first.labels, first.ranks = out.labels, out.ranks
		return nil
	}
	if !slices.Equal(out.labels, first.labels) {
		return fmt.Errorf("WCC labels differ from the first op's")
	}
	for v, r := range out.ranks {
		if math.Float64bits(r) != math.Float64bits(first.ranks[v]) {
			return fmt.Errorf("PageRank rank of vertex %d differs bitwise from the first op's", v)
		}
	}
	return nil
}
