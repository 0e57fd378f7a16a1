package swbfs

import "testing"

func TestPublicAPIQuickstart(t *testing.T) {
	g, err := GenerateGraph(GraphConfig{Scale: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMachine(4)
	cfg.SuperNodeSize = 2
	m, err := NewMachine(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	_, root := g.MaxDegree()
	res, err := m.BFS(root)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited < 2 || res.GTEPS <= 0 {
		t.Fatalf("result = visited %d, %.3f GTEPS", res.Visited, res.GTEPS)
	}
	if _, err := ValidateBFS(g, root, res.Parent); err != nil {
		t.Fatalf("validation: %v", err)
	}
	if m.Graph() != g {
		t.Fatal("Graph() accessor broken")
	}
	if m.Config().Nodes != 4 {
		t.Fatal("Config() accessor broken")
	}
}

func TestPublicAPIBuildGraph(t *testing.T) {
	g, err := BuildGraph(3, []Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	parent, level := ReferenceBFS(g, 0)
	if parent[2] != 1 || level[2] != 2 {
		t.Fatalf("reference BFS wrong: %v %v", parent, level)
	}
}

func TestPublicAPIGraph500(t *testing.T) {
	report, err := RunGraph500(Graph500Config{
		Scale: 9,
		Seed:  7,
		Roots: 4,
		Machine: func() MachineConfig {
			c := DefaultMachine(2)
			return c
		}(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.GTEPSHarmonicMean() <= 0 {
		t.Fatal("no headline GTEPS")
	}
}

func TestPublicAPIAlgorithms(t *testing.T) {
	g, err := GenerateGraph(GraphConfig{Scale: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMachine(4)
	cfg.SuperNodeSize = 2
	_, hub := g.MaxDegree()

	wg, err := GenerateWeights(g, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	sssp, err := SSSP(cfg, wg, hub)
	if err != nil {
		t.Fatal(err)
	}
	if sssp.Dist[hub] != 0 {
		t.Fatal("source distance not zero")
	}
	ds, err := DeltaSSSP(cfg, wg, hub, 8)
	if err != nil {
		t.Fatal(err)
	}
	for v := range sssp.Dist {
		if sssp.Dist[v] != ds.Dist[v] {
			t.Fatalf("SSSP implementations disagree at %d", v)
		}
	}

	wcc, err := WCC(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if wcc.Components < 1 {
		t.Fatal("no components")
	}

	pr, err := PageRank(cfg, g, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for _, r := range pr.Rank {
		mass += r
	}
	if mass < 0.99 || mass > 1.01 {
		t.Fatalf("rank mass %v", mass)
	}

	kc, err := KCore(cfg, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if kc.CoreSize <= 0 {
		t.Fatal("empty 4-core on a Kronecker graph")
	}

	bc, err := Betweenness(cfg, g, []Vertex{hub})
	if err != nil {
		t.Fatal(err)
	}
	var touched bool
	for _, c := range bc.Centrality {
		if c > 0 {
			touched = true
			break
		}
	}
	if !touched {
		t.Fatal("betweenness all zero")
	}
}

func TestPublicAPICompression(t *testing.T) {
	g, err := GenerateGraph(GraphConfig{Scale: 9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMachine(4)
	cfg.Codec = AdaptiveCodec{}
	m, err := NewMachine(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	_, root := g.MaxDegree()
	res, err := m.BFS(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBFS(g, root, res.Parent); err != nil {
		t.Fatalf("compressed run invalid: %v", err)
	}
}

func TestPublicAPIImpossibleMachine(t *testing.T) {
	g, err := GenerateGraph(GraphConfig{Scale: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MachineConfig{Nodes: 512, Transport: TransportDirect, Engine: EngineCPE}
	if _, err := NewMachine(cfg, g); err == nil {
		t.Fatal("architecturally impossible machine accepted")
	}
}
