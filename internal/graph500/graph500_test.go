package graph500

import (
	"flag"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"swbfs/internal/algos"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

func pathGraph(t *testing.T, n int64) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for v := graph.Vertex(0); int64(v) < n-1; v++ {
		edges = append(edges, graph.Edge{From: v, To: v + 1})
	}
	g, err := graph.BuildCSR(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidateAcceptsReference(t *testing.T) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 10, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	_, root := g.MaxDegree()
	parent, refLevel := core.ReferenceBFS(g, root)
	level, err := Validate(g, root, parent)
	if err != nil {
		t.Fatalf("Validate rejected a reference BFS: %v", err)
	}
	for v := range level {
		if level[v] != refLevel[v] {
			t.Fatalf("level[%d] = %d, want %d", v, level[v], refLevel[v])
		}
	}
}

func TestValidateRejectsCorruptions(t *testing.T) {
	g := pathGraph(t, 6)
	base, _ := core.ReferenceBFS(g, 0)

	corrupt := func(mutate func(p []graph.Vertex)) []graph.Vertex {
		p := append([]graph.Vertex(nil), base...)
		mutate(p)
		return p
	}

	cases := map[string][]graph.Vertex{
		"root not self":   corrupt(func(p []graph.Vertex) { p[0] = 1 }),
		"bogus tree edge": corrupt(func(p []graph.Vertex) { p[4] = 1 }), // (1,4) not an edge
		"cycle":           corrupt(func(p []graph.Vertex) { p[1] = 2; p[2] = 1 }),
		"unvisited hole":  corrupt(func(p []graph.Vertex) { p[2] = graph.NoVertex }),
		"out of range":    corrupt(func(p []graph.Vertex) { p[3] = 99 }),
	}
	for name, parent := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Validate(g, 0, parent); err == nil {
				t.Fatal("corruption accepted")
			}
		})
	}

	if _, err := Validate(g, 99, base); err == nil {
		t.Fatal("bad root accepted")
	}
	if _, err := Validate(g, 0, base[:3]); err == nil {
		t.Fatal("short parent map accepted")
	}
}

func TestValidateComponentRule(t *testing.T) {
	// Two components 0-1 and 2-3; a parent map claiming 2 visited but not
	// 3 violates the component rule.
	g, err := graph.BuildCSR(4, []graph.Edge{{From: 0, To: 1}, {From: 2, To: 3}})
	if err != nil {
		t.Fatal(err)
	}
	parent := []graph.Vertex{0, 0, graph.NoVertex, graph.NoVertex}
	if _, err := Validate(g, 0, parent); err != nil {
		t.Fatalf("clean two-component map rejected: %v", err)
	}
	parent[2] = 3
	parent[3] = 3
	// Now 2,3 claim visited from root 0's run: level chase from 3 never
	// reaches root... actually 3 is its own root-like self-parent, which
	// makes the tree edge rule pass but levels start at -1; the chase
	// treats it as a cycle (3 -> 3). Expect rejection.
	if _, err := Validate(g, 0, parent); err == nil {
		t.Fatal("spurious second component accepted")
	}
}

func TestValidateParallelMatchesSequential(t *testing.T) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 11, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	_, root := g.MaxDegree()
	parent, _ := core.ReferenceBFS(g, root)

	seq, err := Validate(g, root, parent)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 8} {
		par, err := ValidateParallel(g, root, parent, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for v := range seq {
			if par[v] != seq[v] {
				t.Fatalf("workers=%d: level[%d] = %d vs %d", workers, v, par[v], seq[v])
			}
		}
	}
}

func TestValidateParallelRejectsCorruptions(t *testing.T) {
	g := pathGraph(t, 8)
	base, _ := core.ReferenceBFS(g, 0)
	corrupt := func(mutate func(p []graph.Vertex)) []graph.Vertex {
		p := append([]graph.Vertex(nil), base...)
		mutate(p)
		return p
	}
	type corrupted struct {
		g      *graph.CSR
		root   graph.Vertex
		parent []graph.Vertex
	}
	cases := map[string]corrupted{
		"root not self":   {g, 0, corrupt(func(p []graph.Vertex) { p[0] = 1 })},
		"bogus tree edge": {g, 0, corrupt(func(p []graph.Vertex) { p[5] = 1 })},
		"cycle":           {g, 0, corrupt(func(p []graph.Vertex) { p[1] = 2; p[2] = 1 })},
		"unvisited hole":  {g, 0, corrupt(func(p []graph.Vertex) { p[3] = graph.NoVertex })},
		"out of range":    {g, 0, corrupt(func(p []graph.Vertex) { p[4] = 99 })},
	}

	// Failures in every chunk of a multi-chunk graph: each deep vertex is
	// re-parented to the root, which is neither its neighbour (rule 3) nor
	// within a level of its neighbours (rule 5). Whichever worker finishes
	// first, the lowest chunk's failure is the one reported.
	kron, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 12, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if kron.NumEdges() <= 2*validateChunkEdges {
		t.Fatalf("scale-12 graph has %d stored edges, want three chunks or more", kron.NumEdges())
	}
	_, hub := kron.MaxDegree()
	scattered, level := core.ReferenceBFS(kron, hub)
	for v := range scattered {
		if level[v] >= 3 {
			scattered[v] = hub
		}
	}
	cases["failures in several chunks"] = corrupted{kron, hub, scattered}

	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			var want string
			for round := 0; round < 3; round++ {
				for _, workers := range []int{1, 2, 3, 7} {
					_, err := ValidateParallel(c.g, c.root, c.parent, workers)
					if err == nil {
						t.Fatalf("workers=%d: corruption accepted", workers)
					}
					if want == "" {
						want = err.Error()
					} else if err.Error() != want {
						t.Fatalf("workers=%d reports %q, workers=1 reported %q", workers, err, want)
					}
				}
			}
		})
	}
}

// TestValidateParallelConcurrentCalls: validations of differently sized
// graphs running at once each hold their own pooled scratch — run under
// -race, and checked against Validate's levels.
func TestValidateParallelConcurrentCalls(t *testing.T) {
	var wg sync.WaitGroup
	for _, scale := range []int{6, 9, 12, 7, 11} {
		g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: scale, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		_, root := g.MaxDegree()
		parent, _ := core.ReferenceBFS(g, root)
		want, err := Validate(g, root, parent)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := ValidateParallel(g, root, parent, 2)
				if err != nil || !slices.Equal(got, want) {
					t.Errorf("scale %d call %d: err %v, levels equal %v", scale, i, err, slices.Equal(got, want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestValidateParallelLongPath exercises the iterative chain resolution on
// a graph whose parent chains are as deep as the vertex count.
func TestValidateParallelLongPath(t *testing.T) {
	g := pathGraph(t, 20000)
	parent, _ := core.ReferenceBFS(g, 0)
	level, err := ValidateParallel(g, 0, parent, 4)
	if err != nil {
		t.Fatal(err)
	}
	if level[19999] != 19999 {
		t.Fatalf("deep level = %d", level[19999])
	}
}

func TestSummarizeArithmetic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5}, false)
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
}

func TestSummarizeHarmonic(t *testing.T) {
	s := Summarize([]float64{1, 2, 4}, true)
	want := 3.0 / (1 + 0.5 + 0.25)
	if math.Abs(s.Mean-want) > 1e-12 {
		t.Fatalf("harmonic mean = %v, want %v", s.Mean, want)
	}
	if s.String() == "" || !strings.Contains(s.String(), "harmonic") {
		t.Fatal("render broken")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, true)
	if s.Mean != 0 || s.Min != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSampleRoots(t *testing.T) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 9, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	roots, err := SampleRoots(g, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 16 {
		t.Fatalf("%d roots", len(roots))
	}
	seen := map[graph.Vertex]bool{}
	for _, r := range roots {
		if g.Degree(r) == 0 {
			t.Fatalf("trivial root %d", r)
		}
		if seen[r] {
			t.Fatalf("duplicate root %d", r)
		}
		seen[r] = true
	}
	// Determinism.
	again, err := SampleRoots(g, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range roots {
		if roots[i] != again[i] {
			t.Fatal("root sampling not deterministic")
		}
	}
}

func TestSampleRootsNoNontrivial(t *testing.T) {
	g, err := graph.BuildCSR(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SampleRoots(g, 4, 1); err == nil {
		t.Fatal("edgeless graph accepted")
	}
}

func TestFullBenchmark(t *testing.T) {
	cfg := BenchConfig{
		Scale: 10,
		Seed:  99,
		Roots: 8,
		Machine: func() core.Config {
			c := core.DefaultConfig(4)
			c.SuperNodeSize = 2
			return c
		}(),
	}
	report, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Runs) != 8 {
		t.Fatalf("%d runs", len(report.Runs))
	}
	for _, rr := range report.Runs {
		if !rr.Validated {
			t.Fatalf("root %d not validated", rr.Root)
		}
		if rr.TEPS <= 0 || rr.Time <= 0 {
			t.Fatalf("root %d has no performance data", rr.Root)
		}
	}
	if report.GTEPSHarmonicMean() <= 0 {
		t.Fatal("no headline number")
	}
	var sb strings.Builder
	report.Print(&sb)
	out := sb.String()
	for _, want := range []string{"SCALE:", "harmonic_mean_GTEPS:", "NBFS:", "Relay CPE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestBenchmarkDeterministic(t *testing.T) {
	run := func() *Report {
		r, err := Run(BenchConfig{
			Scale: 9, Seed: 33, Roots: 4,
			Machine: core.DefaultConfig(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.GTEPSHarmonicMean() != b.GTEPSHarmonicMean() {
		t.Fatalf("headline differs across identical runs: %v vs %v",
			a.GTEPSHarmonicMean(), b.GTEPSHarmonicMean())
	}
	for i := range a.Runs {
		x, y := a.Runs[i], b.Runs[i]
		if x.Root != y.Root || x.Visited != y.Visited || x.TraversedEdges != y.TraversedEdges ||
			x.Levels != y.Levels || x.BottomUpLevels != y.BottomUpLevels {
			t.Fatalf("run %d differs: %+v vs %+v", i, x, y)
		}
	}
}

// benchKernels are the kernels Run benchmarks, with the arguments the
// harness tests run them with.
var benchKernels = []struct{ kernel, args string }{
	{"bfs", ""}, {"sssp", ""}, {"delta-sssp", "delta=32"},
}

// runKernels runs base with every benchmarked kernel and checks the
// protocol they share: every root validates, every kernel gets the same
// roots, and BFS, SSSP and delta-stepping all reach the root's component.
// A kernel Graph500 defines no rule for is refused by name.
func runKernels(t *testing.T, base BenchConfig) map[string]*Report {
	t.Helper()
	reports := map[string]*Report{}
	for _, k := range benchKernels {
		cfg := base
		cfg.Kernel, cfg.Args = k.kernel, k.args
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", k.kernel, err)
		}
		if len(r.Runs) != base.Roots || r.GTEPSHarmonicMean() <= 0 {
			t.Fatalf("%s: report = %+v", k.kernel, r)
		}
		for i, rr := range r.Runs {
			if !rr.Validated || rr.TEPS <= 0 || rr.Time <= 0 {
				t.Fatalf("%s root %d: %+v", k.kernel, rr.Root, rr)
			}
			bfs := reports["bfs"]
			if bfs == nil {
				continue
			}
			if rr.Root != bfs.Runs[i].Root {
				t.Fatalf("%s: root %d is %d, bfs had %d", k.kernel, i, rr.Root, bfs.Runs[i].Root)
			}
			if rr.Visited != bfs.Runs[i].Visited {
				t.Fatalf("%s root %d: reached %d, bfs visited %d", k.kernel, rr.Root, rr.Visited, bfs.Runs[i].Visited)
			}
		}
		reports[k.kernel] = r
	}
	wcc := base
	wcc.Kernel = "wcc"
	if _, err := Run(wcc); err == nil || !strings.Contains(err.Error(), `"wcc"`) {
		t.Fatalf("wcc: err = %v, want a refusal naming it", err)
	}
	return reports
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/kernel_gteps.golden.json from the current engine")

const kernelGTEPSGolden = "testdata/kernel_gteps.golden.json"

// TestRunKernels runs every benchmarked kernel on a Kronecker graph and
// pins the SSSP and delta=32 harmonic-mean GTEPS, modelled numbers that
// `make regen-modelled` rewrites.
func TestRunKernels(t *testing.T) {
	machine := core.DefaultConfig(4)
	machine.SuperNodeSize = 2
	reports := runKernels(t, BenchConfig{Scale: 9, Seed: 11, Roots: 3, Machine: machine})
	got := map[string]float64{}
	for _, kernel := range []string{"sssp", "delta-sssp"} {
		got[kernel] = reports[kernel].GTEPSHarmonicMean()
	}
	testutil.Golden(t, kernelGTEPSGolden, *updateGolden, got)
}

// TestMeasureRejects: Measure fails a corrupted BFS parent map or SSSP
// distance array when asked to validate, passes it through unvalidated
// when not, and refuses a result Graph500 defines no rule for.
func TestMeasureRejects(t *testing.T) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wg, err := SSSPWeights(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, root := g.MaxDegree()
	for _, kernel := range []string{"bfs", "sssp", "wcc"} {
		k, err := algos.KernelByName(kernel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := k.Run(core.DefaultConfig(2), wg, root, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		switch res := res.(type) {
		case *core.Result:
			res.Parent[root] = graph.NoVertex
		case *algos.SSSPResult:
			res.Dist[root] = 1
		default:
			if _, err := Measure(wg, root, res, false); err == nil || HasRule(kernel) {
				t.Fatalf("%s: a result with no Graph500 rule was measured", kernel)
			}
			continue
		}
		if _, err := Measure(wg, root, res, true); err == nil {
			t.Fatalf("%s: corrupted result validated", kernel)
		}
		if rr, err := Measure(wg, root, res, false); err != nil || rr.Validated || rr.TEPS <= 0 {
			t.Fatalf("%s: unvalidated row = %+v, %v", kernel, rr, err)
		}
	}
}

// TestBenchmarkFileInput runs every kernel on a graph the caller built, as
// cmd/graph500 -input does with the edge list it read.
func TestBenchmarkFileInput(t *testing.T) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reports := runKernels(t, BenchConfig{
		Graph:      g,
		Seed:       3,
		Roots:      2,
		KeepLevels: true,
		Machine:    core.DefaultConfig(2),
	})
	for kernel, r := range reports {
		if r.NumVertices != 1<<9 {
			t.Fatalf("%s: vertices = %d", kernel, r.NumVertices)
		}
		if len(r.Runs[0].LevelDetail) == 0 {
			t.Fatalf("%s: KeepLevels did not retain level detail", kernel)
		}
		var sb strings.Builder
		r.PrintDetail(&sb)
		if !strings.Contains(sb.String(), "file input") || !strings.Contains(sb.String(), "L0") {
			t.Fatalf("%s: detail output wrong:\n%s", kernel, sb.String())
		}
	}
}

func TestBenchmarkPropagatesMachineFailure(t *testing.T) {
	cfg := BenchConfig{
		Scale: 8,
		Seed:  1,
		Roots: 2,
		Machine: core.Config{
			Nodes:           16,
			SuperNodeSize:   4,
			Transport:       core.TransportDirect,
			MPIMemoryBudget: 4 * 100 << 10,
		},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("machine crash not propagated")
	}
}
