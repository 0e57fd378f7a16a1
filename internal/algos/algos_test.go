package algos

import (
	"math"
	"testing"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

func machine(nodes int, transport core.Transport) core.Config {
	return core.Config{
		Nodes:         nodes,
		SuperNodeSize: 4,
		Transport:     transport,
		Engine:        perf.EngineCPE,
	}
}

func kron(t testing.TB, scale int, seed int64) *graph.CSR {
	t.Helper()
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWeightedCSR(t *testing.T) {
	g := kron(t, 9, 3)
	wg := testutil.Weighted(t, g, 5)
	if err := wg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Symmetric weights, positive, retrievable both ways.
	for u := graph.Vertex(0); u < 64; u++ {
		for _, v := range g.Neighbors(u) {
			w1, err := wg.EdgeWeight(u, v)
			if err != nil {
				t.Fatal(err)
			}
			w2, err := wg.EdgeWeight(v, u)
			if err != nil {
				t.Fatal(err)
			}
			if w1 != w2 || w1 < 1 || w1 > 64 {
				t.Fatalf("weight(%d,%d) = %d / %d", u, v, w1, w2)
			}
		}
	}
	if _, err := wg.EdgeWeight(0, 0); err == nil {
		t.Fatal("self-loop weight lookup succeeded")
	}
	if _, err := graph.GenerateWeights(g, 0, 1); err == nil {
		t.Fatal("zero max weight accepted")
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := kron(t, 10, 17)
	wg := testutil.Weighted(t, g, 7)
	want := ReferenceSSSP(wg, 3)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		res, err := SSSP(machine(4, transport), wg, 3)
		if err != nil {
			t.Fatalf("%v: %v", transport, err)
		}
		for v := range want {
			if res.Dist[v] != want[v] {
				t.Fatalf("%v: dist[%d] = %d, want %d", transport, v, res.Dist[v], want[v])
			}
		}
		if res.Info.Rounds == 0 || res.Info.Time <= 0 {
			t.Fatalf("%v: no run info", transport)
		}
		if res.Relaxations <= 0 {
			t.Fatal("no relaxations counted")
		}
	}
}

func TestSSSPUnreachable(t *testing.T) {
	// Two components: distances in the far one stay infinite.
	g, err := graph.BuildCSR(5, []graph.Edge{{From: 0, To: 1}, {From: 2, To: 3}})
	if err != nil {
		t.Fatal(err)
	}
	wg := testutil.Weighted(t, g, 1)
	res, err := SSSP(machine(2, core.TransportDirect), wg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[0] != 0 || res.Dist[1] == InfDistance {
		t.Fatal("own component wrong")
	}
	for _, v := range []int{2, 3, 4} {
		if res.Dist[v] != InfDistance {
			t.Fatalf("dist[%d] = %d, want inf", v, res.Dist[v])
		}
	}
}

func TestSSSPRejectsBadRoot(t *testing.T) {
	g := kron(t, 6, 1)
	wg := testutil.Weighted(t, g, 1)
	if _, err := SSSP(machine(2, core.TransportDirect), wg, -1); err == nil {
		t.Fatal("negative root accepted")
	}
}

func TestWCCMatchesUnionFind(t *testing.T) {
	g := kron(t, 10, 23)
	want := ReferenceWCC(g)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		res, err := WCC(machine(4, transport), g)
		if err != nil {
			t.Fatalf("%v: %v", transport, err)
		}
		for v := range want {
			if res.Label[v] != want[v] {
				t.Fatalf("%v: label[%d] = %d, want %d", transport, v, res.Label[v], want[v])
			}
		}
		// Component count equals distinct reference labels.
		distinct := map[graph.Vertex]struct{}{}
		for _, l := range want {
			distinct[l] = struct{}{}
		}
		if res.Components != int64(len(distinct)) {
			t.Fatalf("%v: %d components, want %d", transport, res.Components, len(distinct))
		}
	}
}

func TestWCCPathGraph(t *testing.T) {
	// A path: one component labelled 0; rounds ~ diameter.
	edges := make([]graph.Edge, 0, 31)
	for v := graph.Vertex(0); v < 31; v++ {
		edges = append(edges, graph.Edge{From: v, To: v + 1})
	}
	g, err := graph.BuildCSR(32, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WCC(machine(4, core.TransportDirect), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 1 {
		t.Fatalf("%d components", res.Components)
	}
	for v, l := range res.Label {
		if l != 0 {
			t.Fatalf("label[%d] = %d", v, l)
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	g := kron(t, 9, 31)
	const iters = 8
	want := ReferencePageRank(g, iters, 0)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		res, err := PageRank(machine(4, transport), g, iters, 0)
		if err != nil {
			t.Fatalf("%v: %v", transport, err)
		}
		var sum float64
		for v := range want {
			if math.Abs(res.Rank[v]-want[v]) > 1e-9 {
				t.Fatalf("%v: rank[%d] = %v, want %v", transport, v, res.Rank[v], want[v])
			}
			sum += res.Rank[v]
		}
		// Rank mass is conserved (within fixed-point slack).
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("%v: rank mass %v, want 1", transport, sum)
		}
		if res.Info.Rounds != iters {
			t.Fatalf("%v: %d rounds, want %d", transport, res.Info.Rounds, iters)
		}
	}
}

func TestPageRankHubOutranks(t *testing.T) {
	g := kron(t, 10, 37)
	res, err := PageRank(machine(2, core.TransportRelay), g, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, hub := g.MaxDegree()
	var better int
	for v := range res.Rank {
		if res.Rank[v] > res.Rank[hub] {
			better++
		}
	}
	if better > 10 {
		t.Fatalf("max-degree hub outranked by %d vertices", better)
	}
}

func TestPageRankRejects(t *testing.T) {
	g := kron(t, 6, 1)
	if _, err := PageRank(machine(2, core.TransportDirect), g, 0, 0); err == nil {
		t.Fatal("zero iterations accepted")
	}
	if _, err := PageRank(machine(2, core.TransportDirect), g, 5, 1.5); err == nil {
		t.Fatal("damping out of range accepted")
	}
}

func TestKCoreMatchesPeeling(t *testing.T) {
	g := kron(t, 10, 41)
	for _, k := range []int64{2, 4, 8, 16} {
		want := ReferenceKCore(g, k)
		for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
			res, err := KCore(machine(4, transport), g, k)
			if err != nil {
				t.Fatalf("k=%d %v: %v", k, transport, err)
			}
			var wantSize int64
			for v := range want {
				if res.InCore[v] != want[v] {
					t.Fatalf("k=%d %v: InCore[%d] = %v, want %v", k, transport, v, res.InCore[v], want[v])
				}
				if want[v] {
					wantSize++
				}
			}
			if res.CoreSize != wantSize {
				t.Fatalf("k=%d: core size %d, want %d", k, res.CoreSize, wantSize)
			}
		}
	}
}

func TestKCoreDegenerate(t *testing.T) {
	g := kron(t, 8, 2)
	if _, err := KCore(machine(2, core.TransportDirect), g, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	// k=1 removes exactly the isolated vertices.
	res, err := KCore(machine(2, core.TransportDirect), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.Vertex(0); int64(v) < g.N; v++ {
		if res.InCore[v] != (g.Degree(v) > 0) {
			t.Fatalf("k=1 core wrong at %d", v)
		}
	}
	// Huge k empties the core.
	res, err = KCore(machine(2, core.TransportDirect), g, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreSize != 0 {
		t.Fatalf("core size %d for k=2^40", res.CoreSize)
	}
}

// TestKCoreNesting: the (k+1)-core is a subset of the k-core — a classic
// invariant of the decomposition.
func TestKCoreNesting(t *testing.T) {
	g := kron(t, 9, 43)
	cfg := machine(4, core.TransportRelay)
	prev, err := KCore(cfg, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(2); k <= 8; k++ {
		cur, err := KCore(cfg, g, k)
		if err != nil {
			t.Fatal(err)
		}
		for v := range cur.InCore {
			if cur.InCore[v] && !prev.InCore[v] {
				t.Fatalf("vertex %d in %d-core but not in %d-core", v, k, k-1)
			}
		}
		prev = cur
	}
}

// TestRelayBenefitsAlgorithms: the paper's transfer claim — the relay
// transport reduces per-node connections for the other algorithms exactly
// as it does for BFS.
func TestRelayBenefitsAlgorithms(t *testing.T) {
	g := kron(t, 10, 47)
	wg := testutil.Weighted(t, g, 3)

	direct, err := SSSP(machine(16, core.TransportDirect), wg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgRelay := machine(16, core.TransportRelay)
	cfgRelay.GroupM = 4
	relay, err := SSSP(cfgRelay, wg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Info.MaxConnections != 15 {
		t.Fatalf("direct connections = %d, want 15", direct.Info.MaxConnections)
	}
	if relay.Info.MaxConnections > 7 {
		t.Fatalf("relay connections = %d, want <= N+M-1 = 7", relay.Info.MaxConnections)
	}
	// Identical answers either way.
	for v := range direct.Dist {
		if direct.Dist[v] != relay.Dist[v] {
			t.Fatalf("transport changed dist[%d]", v)
		}
	}
}

func TestRunGuards(t *testing.T) {
	g := kron(t, 6, 1)
	// Non-converging algorithm trips the round guard.
	_, _, err := Run(machine(2, core.TransportDirect), g, RunOptions{MaxRounds: 5, Root: graph.NoVertex}, func(ctx *NodeCtx) (RoundAlgo, error) {
		return &neverConverges{}, nil
	})
	if err == nil {
		t.Fatal("non-converging algorithm not stopped")
	}
	// Impossible machine config propagates.
	bad := machine(512, core.TransportDirect)
	bad.Engine = perf.EngineCPE
	if _, _, err := Run(bad, g, RunOptions{Root: graph.NoVertex}, func(ctx *NodeCtx) (RoundAlgo, error) {
		return &neverConverges{}, nil
	}); err == nil {
		t.Fatal("impossible machine accepted")
	}
}

type neverConverges struct{}

func (*neverConverges) Active() int64                  { return 1 }
func (*neverConverges) Generate(int, *comm.Lane) error { return nil }
func (*neverConverges) Handle(int, []comm.Pair)        {}
func (*neverConverges) EndRound(int) error             { return nil }
func (*neverConverges) State() ckpt.State              { return nil }
