package algos

import (
	"testing"

	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

func TestDeltaSSSPMatchesDijkstra(t *testing.T) {
	g := kron(t, 10, 53)
	wg := testutil.Weighted(t, g, 100)
	_, root := g.MaxDegree()
	want := ReferenceSSSP(wg, root)
	for _, delta := range []int64{1, 10, 50, 0 /* = max weight */} {
		for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
			res, err := DeltaSSSP(machine(4, transport), wg, root, delta)
			if err != nil {
				t.Fatalf("delta=%d %v: %v", delta, transport, err)
			}
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("delta=%d %v: dist[%d] = %d, want %d",
						delta, transport, v, res.Dist[v], want[v])
				}
			}
			if res.Relaxations <= 0 || res.Buckets <= 0 {
				t.Fatalf("delta=%d: no work recorded: %+v", delta, res)
			}
		}
	}
}

func TestDeltaSSSPAgreesWithBellmanFord(t *testing.T) {
	g := kron(t, 9, 59)
	wg := testutil.Weighted(t, g, 64)
	cfg := machine(4, core.TransportRelay)
	_, root := g.MaxDegree()

	bf, err := SSSP(cfg, wg, root)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DeltaSSSP(cfg, wg, root, 16)
	if err != nil {
		t.Fatal(err)
	}
	for v := range bf.Dist {
		if bf.Dist[v] != ds.Dist[v] {
			t.Fatalf("dist[%d]: BF %d vs delta-stepping %d", v, bf.Dist[v], ds.Dist[v])
		}
	}
	// The work/step tradeoff: delta-stepping buckets take more rounds than
	// the frontier sweep on a small-world graph.
	if ds.Info.Rounds < bf.Info.Rounds {
		t.Fatalf("delta-stepping rounds %d < Bellman-Ford rounds %d — bucketing had no effect",
			ds.Info.Rounds, bf.Info.Rounds)
	}
}

func TestDeltaSSSPPathGraph(t *testing.T) {
	// A long weighted path maximizes bucket count; distances are exact
	// prefix sums.
	const n = 64
	edges := make([]graph.Edge, 0, n-1)
	for v := graph.Vertex(0); v < n-1; v++ {
		edges = append(edges, graph.Edge{From: v, To: v + 1})
	}
	g, err := graph.BuildCSR(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	wg := testutil.Weighted(t, g, 9)
	res, err := DeltaSSSP(machine(2, core.TransportDirect), wg, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceSSSP(wg, 0)
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want[v])
		}
	}
}

func TestDeltaSSSPRejects(t *testing.T) {
	g := kron(t, 6, 1)
	wg := testutil.Weighted(t, g, 8)
	if _, err := DeltaSSSP(machine(2, core.TransportDirect), wg, -1, 4); err == nil {
		t.Fatal("bad root accepted")
	}
	if _, err := DeltaSSSP(machine(2, core.TransportDirect), wg, 0, -3); err == nil {
		t.Fatal("negative delta accepted")
	}
}
