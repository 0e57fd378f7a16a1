package core

import (
	"errors"
	"testing"
	"time"

	"swbfs/internal/comm"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

func kron(t *testing.T, scale int, seed int64) *graph.CSR {
	t.Helper()
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkBFSTree verifies that parent is a valid BFS tree of g rooted at
// root, using the reference levels: the visited set must match, the root
// must be its own parent, every tree edge must exist in the graph and
// connect consecutive levels.
func checkBFSTree(t *testing.T, g *graph.CSR, root graph.Vertex, parent []graph.Vertex) {
	t.Helper()
	_, refLevel := ReferenceBFS(g, root)
	if parent[root] != root {
		t.Fatalf("root parent = %d, want self (%d)", parent[root], root)
	}
	for v := graph.Vertex(0); int64(v) < g.N; v++ {
		p := parent[v]
		if (p == graph.NoVertex) != (refLevel[v] == -1) {
			t.Fatalf("vertex %d: visited=%v but reference level %d", v, p != graph.NoVertex, refLevel[v])
		}
		if p == graph.NoVertex || v == root {
			continue
		}
		if !g.HasEdge(p, v) {
			t.Fatalf("tree edge (%d, %d) not in graph", p, v)
		}
		if refLevel[v] != refLevel[p]+1 {
			t.Fatalf("vertex %d at level %d has parent %d at level %d", v, refLevel[v], p, refLevel[p])
		}
	}
}

func TestReferenceBFS(t *testing.T) {
	// Path graph 0-1-2-3 plus isolated 4.
	g, err := graph.BuildCSR(5, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	parent, level := ReferenceBFS(g, 0)
	wantLevel := []int64{0, 1, 2, 3, -1}
	for v, want := range wantLevel {
		if level[v] != want {
			t.Fatalf("level[%d] = %d, want %d", v, level[v], want)
		}
	}
	if parent[0] != 0 || parent[1] != 0 || parent[2] != 1 || parent[3] != 2 || parent[4] != graph.NoVertex {
		t.Fatalf("parents = %v", parent)
	}
	if componentEdges(g, parent) != 3 {
		t.Fatalf("component edges = %d, want 3", componentEdges(g, parent))
	}
}

// componentEdges is the oracle for Result.TraversedEdges: the number of
// undirected edges with at least one endpoint in the BFS tree — the
// Graph500 edge count used for TEPS (each undirected edge counted once),
// summed over the global CSR.
func componentEdges(g *graph.CSR, parent []graph.Vertex) int64 {
	var directed int64
	for v := graph.Vertex(0); int64(v) < g.N; v++ {
		if parent[v] != graph.NoVertex {
			directed += g.Degree(v)
		}
	}
	return directed / 2
}

func TestPolicyTransitions(t *testing.T) {
	p := NewPolicy(14, 24, true)
	if p.State() != TopDown {
		t.Fatal("policy must start top-down")
	}
	// Small frontier: stay top-down.
	if d := p.Next(10, 100, 1_000_000, 10_000); d != TopDown {
		t.Fatalf("direction = %v, want topdown", d)
	}
	// Frontier edges exceed mu/alpha: switch to bottom-up.
	if d := p.Next(5000, 500_000, 1_000_000, 10_000); d != BottomUp {
		t.Fatalf("direction = %v, want bottomup", d)
	}
	// Stay bottom-up while frontier is large.
	if d := p.Next(5000, 100, 100, 10_000); d != BottomUp {
		t.Fatalf("direction = %v, want bottomup (frontier still large)", d)
	}
	// Frontier shrinks below n/beta: back to top-down.
	if d := p.Next(10, 100, 100, 10_000); d != TopDown {
		t.Fatalf("direction = %v, want topdown", d)
	}
}

func TestPolicyDisabled(t *testing.T) {
	p := NewPolicy(14, 24, false)
	if d := p.Next(5000, 500_000, 1_000_000, 10_000); d != TopDown {
		t.Fatal("disabled policy must pin top-down")
	}
}

func TestDistributedMatchesReference(t *testing.T) {
	g := kron(t, 10, 42)
	configs := []Config{
		{Nodes: 4, SuperNodeSize: 2, Transport: TransportDirect, Engine: perf.EngineMPE},
		{Nodes: 4, SuperNodeSize: 2, Transport: TransportRelay, Engine: perf.EngineCPE,
			DirectionOptimized: true, HubPrefetch: true, SmallMessageMPE: true},
		{Nodes: 8, SuperNodeSize: 4, Transport: TransportRelay, Engine: perf.EngineMPE,
			DirectionOptimized: true},
		{Nodes: 8, SuperNodeSize: 4, Transport: TransportDirect, Engine: perf.EngineCPE,
			HubPrefetch: true},
		{Nodes: 6, SuperNodeSize: 3, Transport: TransportRelay, Engine: perf.EngineCPE,
			DirectionOptimized: true, HubPrefetch: true, GroupM: 3},
	}
	for _, cfg := range configs {
		t.Run(cfg.Name(), func(t *testing.T) {
			r, err := NewRunner(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			for _, root := range []graph.Vertex{0, 17, 255} {
				res, err := r.Run(root)
				if err != nil {
					t.Fatalf("root %d: %v", root, err)
				}
				checkBFSTree(t, g, root, res.Parent)
				if res.GTEPS <= 0 || res.Time <= 0 {
					t.Fatalf("no timing: GTEPS=%v time=%v", res.GTEPS, res.Time)
				}
				if res.Visited < 2 {
					t.Fatalf("visited only %d vertices", res.Visited)
				}
			}
		})
	}
}

// TestRunLeavesNoGoroutines: every Run tears down its node, module and
// watchdog goroutines — repeated runs on one Runner must not accumulate
// any.
func TestRunLeavesNoGoroutines(t *testing.T) {
	leak := testutil.CheckGoroutines(t)
	g := kron(t, 10, 42)
	cfg := DefaultConfig(4)
	cfg.SuperNodeSize = 2
	cfg.LevelTimeout = 30 * time.Second // watchdog armed, never fires
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Run(17); err != nil {
			t.Fatal(err)
		}
	}
	leak()
}

func TestDirectionOptimizationEngages(t *testing.T) {
	g := kron(t, 12, 7)
	cfg := DefaultConfig(4)
	cfg.SuperNodeSize = 2
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a root inside the big component.
	root := pickBigComponentRoot(t, g)
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if res.BottomUpLevels == 0 {
		t.Fatal("direction optimization never switched to bottom-up on a Kronecker graph")
	}
	if res.BottomUpLevels == len(res.Levels) {
		t.Fatal("policy never ran top-down")
	}
}

func pickBigComponentRoot(t *testing.T, g *graph.CSR) graph.Vertex {
	t.Helper()
	_, v := g.MaxDegree()
	if v == graph.NoVertex {
		t.Fatal("empty graph")
	}
	return v
}

func TestHybridVisitsSameSetAsTopDownOnly(t *testing.T) {
	g := kron(t, 11, 3)
	root := pickBigComponentRoot(t, g)

	hybrid := DefaultConfig(4)
	hybrid.SuperNodeSize = 4
	rh, err := NewRunner(hybrid, g)
	if err != nil {
		t.Fatal(err)
	}
	resH, err := rh.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	td := hybrid
	td.DirectionOptimized = false
	td.HubPrefetch = false
	rt, err := NewRunner(td, g)
	if err != nil {
		t.Fatal(err)
	}
	resT, err := rt.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	if resH.Visited != resT.Visited || resH.TraversedEdges != resT.TraversedEdges {
		t.Fatalf("hybrid (%d vertices, %d edges) differs from top-down (%d, %d)",
			resH.Visited, resH.TraversedEdges, resT.Visited, resT.TraversedEdges)
	}
	if len(resH.Levels) != len(resT.Levels) {
		t.Fatalf("level counts differ: %d vs %d", len(resH.Levels), len(resT.Levels))
	}
}

func TestHubPrefetchSavesTraffic(t *testing.T) {
	g := kron(t, 12, 5)
	root := pickBigComponentRoot(t, g)

	withHubs := DefaultConfig(8)
	withHubs.SuperNodeSize = 4
	r1, err := NewRunner(withHubs, g)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := r1.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	noHubs := withHubs
	noHubs.HubPrefetch = false
	r2, err := NewRunner(noHubs, g)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r2.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	bytes1 := netBytes(res1)
	bytes2 := netBytes(res2)
	if bytes1 >= bytes2 {
		t.Fatalf("hub prefetch did not reduce traffic: %d vs %d", bytes1, bytes2)
	}
	checkBFSTree(t, g, root, res1.Parent)
	checkBFSTree(t, g, root, res2.Parent)
}

func netBytes(res *Result) int64 {
	var total int64
	for _, l := range res.Levels {
		for _, b := range l.Net.Bytes {
			total += b
		}
	}
	return total
}

func TestRelayReducesConnections(t *testing.T) {
	g := kron(t, 10, 9)
	root := pickBigComponentRoot(t, g)

	direct := Config{Nodes: 16, SuperNodeSize: 4, Transport: TransportDirect, Engine: perf.EngineMPE}
	rd, err := NewRunner(direct, g)
	if err != nil {
		t.Fatal(err)
	}
	resD, err := rd.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	relay := direct
	relay.Transport = TransportRelay
	relay.GroupM = 4
	rr, err := NewRunner(relay, g)
	if err != nil {
		t.Fatal(err)
	}
	resR, err := rr.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	// Direct: 15 peers; relay: at most N+M-1 = 7.
	if resD.MaxConnections != 15 {
		t.Fatalf("direct connections = %d, want 15", resD.MaxConnections)
	}
	if resR.MaxConnections > 7 {
		t.Fatalf("relay connections = %d, want <= 7", resR.MaxConnections)
	}
	checkBFSTree(t, g, root, resR.Parent)
}

func TestDirectCPEHitsSPMLimit(t *testing.T) {
	g := kron(t, 6, 1)
	// 1024-destination SPM budget / 4 concurrent modules = 256 nodes max.
	cfg := Config{Nodes: 257, Transport: TransportDirect, Engine: perf.EngineCPE}
	_, err := NewRunner(cfg, g)
	if !errors.Is(err, ErrCPESPM) {
		t.Fatalf("error = %v, want ErrCPESPM", err)
	}
	// 256 nodes must construct fine.
	cfg.Nodes = 256
	if _, err := NewRunner(cfg, g); err != nil {
		t.Fatalf("256-node Direct CPE rejected: %v", err)
	}
	// Relay CPE is immune at the same scale.
	cfg.Nodes = 1024
	cfg.Transport = TransportRelay
	cfg.GroupM = 32
	if _, err := NewRunner(cfg, g); err != nil {
		t.Fatalf("relay CPE rejected: %v", err)
	}
}

func TestDirectMPIMemoryCrash(t *testing.T) {
	g := kron(t, 9, 2)
	cfg := Config{
		Nodes: 32, SuperNodeSize: 8, Transport: TransportDirect, Engine: perf.EngineMPE,
		MPIMemoryBudget: 8 * 100 << 10, // 8 connections worth
	}
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(pickBigComponentRoot(t, g))
	if err == nil {
		t.Fatal("direct run under a tiny MPI budget should crash")
	}
}

func TestRunRejectsBadRoot(t *testing.T) {
	g := kron(t, 6, 3)
	r, err := NewRunner(DefaultConfig(2), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(-1); err == nil {
		t.Fatal("negative root accepted")
	}
	if _, err := r.Run(graph.Vertex(g.N)); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestNewRunnerRejects(t *testing.T) {
	g := kron(t, 6, 3)
	if _, err := NewRunner(Config{Nodes: 0}, g); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := NewRunner(DefaultConfig(2), nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewRunner(Config{Nodes: 6, Transport: TransportRelay, GroupM: 4}, g); err == nil {
		t.Fatal("non-divisible group accepted")
	}
}

func TestSingleNodeRun(t *testing.T) {
	// P = 1 must degenerate gracefully (all loopback).
	g := kron(t, 9, 8)
	for _, transport := range []Transport{TransportDirect, TransportRelay} {
		cfg := DefaultConfig(1)
		cfg.Transport = transport
		r, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(pickBigComponentRoot(t, g))
		if err != nil {
			t.Fatal(err)
		}
		checkBFSTree(t, g, res.Root, res.Parent)
		if res.MaxConnections != 0 {
			t.Fatalf("single node made %d network connections", res.MaxConnections)
		}
	}
}

func TestIsolatedRoot(t *testing.T) {
	// BFS from an isolated vertex: one visited vertex, zero edges.
	g, err := graph.BuildCSR(8, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(DefaultConfig(2), g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 || res.TraversedEdges != 0 {
		t.Fatalf("isolated root: visited=%d edges=%d", res.Visited, res.TraversedEdges)
	}
	if res.Parent[7] != 7 {
		t.Fatal("root not its own parent")
	}
}

// TestLevelStatsPlumbing checks the white-box statistics the timing model
// consumes: per-module byte splits are present, relay-module work shows up
// under the relay transport, and bottom-up levels carry backward-handler
// input.
func TestLevelStatsPlumbing(t *testing.T) {
	g := kron(t, 12, 77)
	cfg := DefaultConfig(8)
	cfg.SuperNodeSize = 4
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(pickBigComponentRoot(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if res.BottomUpLevels == 0 {
		t.Skip("policy never went bottom-up on this instance")
	}
	var sawRelayWork, sawBackward bool
	for _, l := range res.Levels {
		if len(l.ModuleBytes) != 4 {
			t.Fatalf("level %d has %d module entries, want 4", l.Level, len(l.ModuleBytes))
		}
		gen, fwd, bwd, relay := l.ModuleBytes[0], l.ModuleBytes[1], l.ModuleBytes[2], l.ModuleBytes[3]
		if gen+fwd+bwd+relay > 0 && l.MaxNodeProcessedBytes == 0 {
			t.Fatalf("level %d: module bytes without processed bytes", l.Level)
		}
		if relay > 0 {
			sawRelayWork = true
		}
		if l.Direction == BottomUp.String() && bwd > 0 {
			sawBackward = true
		}
		if l.Direction == TopDown.String() && bwd != 0 {
			t.Fatalf("level %d: top-down level has backward-handler bytes", l.Level)
		}
	}
	if !sawRelayWork {
		t.Fatal("relay transport never recorded relay-module work")
	}
	if !sawBackward {
		t.Fatal("bottom-up levels never recorded backward-handler work")
	}
}

func TestPartitionStrategies(t *testing.T) {
	g := kron(t, 10, 61)
	root := pickBigComponentRoot(t, g)
	for _, strat := range []PartitionStrategy{
		PartitionRoundRobin, PartitionBlock, PartitionDegreeBalanced,
	} {
		t.Run(strat.String(), func(t *testing.T) {
			for _, transport := range []Transport{TransportDirect, TransportRelay} {
				cfg := DefaultConfig(4)
				cfg.SuperNodeSize = 2
				cfg.Partition = strat
				cfg.Transport = transport
				r, err := NewRunner(cfg, g)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run(root)
				if err != nil {
					t.Fatal(err)
				}
				checkBFSTree(t, g, root, res.Parent)
				// The per-node gather's counts against the global oracles.
				var visited int64
				for _, p := range res.Parent {
					if p != graph.NoVertex {
						visited++
					}
				}
				if res.Visited != visited || res.TraversedEdges != componentEdges(g, res.Parent) {
					t.Fatalf("%s: Visited %d, TraversedEdges %d; the parent map has %d and %d",
						transport, res.Visited, res.TraversedEdges, visited, componentEdges(g, res.Parent))
				}
			}
		})
	}
}

func TestCompressionReducesTrafficLosslessly(t *testing.T) {
	g := kron(t, 11, 6)
	root := pickBigComponentRoot(t, g)

	raw := DefaultConfig(8)
	raw.SuperNodeSize = 4
	r1, err := NewRunner(raw, g)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := r1.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	zipped := raw
	zipped.Codec = comm.AdaptiveCodec{}
	r2, err := NewRunner(zipped, g)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r2.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	if netBytes(res2) >= netBytes(res1) {
		t.Fatalf("compression did not reduce traffic: %d vs %d", netBytes(res2), netBytes(res1))
	}
	checkBFSTree(t, g, root, res2.Parent)
	if res1.Visited != res2.Visited {
		t.Fatal("compression changed the visited set")
	}
}

func TestRunnerReusableAcrossRoots(t *testing.T) {
	g := kron(t, 9, 4)
	r, err := NewRunner(DefaultConfig(4), g)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		root := graph.Vertex(seed * 31 % g.N)
		res, err := r.Run(root)
		if err != nil {
			t.Fatalf("run %d: %v", seed, err)
		}
		checkBFSTree(t, g, root, res.Parent)
	}
}
