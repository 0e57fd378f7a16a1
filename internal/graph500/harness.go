package graph500

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"swbfs/internal/algos"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
)

// DefaultRoots is the benchmark's search-key count (64 kernel runs).
const DefaultRoots = 64

// benchmarkedAs maps each table kernel (algos.Kernels) Graph500 defines a
// validation rule for to the Graph500 kernel it is benchmarked as: BFS
// checks a parent map, SSSP (spec v3's second kernel, by Bellman-Ford or
// delta-stepping) a distance array. Run refuses the rootless kernels.
var benchmarkedAs = map[string]string{core.KernelBFS: "bfs", "sssp": "sssp", "delta-sssp": "sssp"}

// HasRule reports whether Graph500 defines a validation rule for the table
// kernel, that is, whether Run benchmarks it and Measure takes its result.
func HasRule(kernel string) bool { return benchmarkedAs[kernel] != "" }

// BenchConfig describes one full benchmark execution.
type BenchConfig struct {
	// Kernel names the table kernel to benchmark: "bfs" (also ""), "sssp"
	// or "delta-sssp". A weighted kernel runs on SSSPWeights(graph, Seed).
	Kernel string
	// Args is the kernel's canonical argument string ("delta=16"; "" for
	// a kernel that takes none).
	Args string
	// Scale and EdgeFactor parametrize the Kronecker input. When Graph is
	// non-nil the benchmark runs on that graph instead: cmd/graph500 -input
	// passes the one it read, internal/experiments the one it keeps for
	// every machine point of a (seed, scale).
	Scale      int
	EdgeFactor int
	Graph      *graph.CSR
	// Seed makes the whole benchmark deterministic.
	Seed int64
	// Roots is the number of search keys (DefaultRoots if zero; smaller
	// values are useful for scaled-down sweeps).
	Roots int
	// SkipValidation skips step (5) — never do this for reported numbers;
	// exposed for timing-only sweeps exactly because validation is the
	// most expensive host-side step.
	SkipValidation bool
	// KeepLevels retains per-level statistics in each RootResult for
	// detailed reporting (PrintDetail).
	KeepLevels bool
	// Machine is the simulated machine configuration for the kernel.
	Machine core.Config
}

// RootResult records one kernel invocation. For SSSP, Visited counts the
// reached vertices, TraversedEdges the relaxations (the TEPS numerator)
// and Levels the rounds.
type RootResult struct {
	Root           graph.Vertex
	Visited        int64
	TraversedEdges int64
	Levels         int
	BottomUpLevels int
	Time           float64 // modelled kernel seconds
	TEPS           float64
	Validated      bool
	// LevelDetail is retained when BenchConfig.KeepLevels is set.
	LevelDetail []perf.LevelStats
}

// Report is the full benchmark outcome.
type Report struct {
	Config                BenchConfig
	NumVertices, NumEdges int64
	// ConstructionSeconds is the host time Run spent building the CSR (0
	// when BenchConfig.Graph supplied it); informational.
	ConstructionSeconds float64
	Runs                []RootResult
	TEPS                Summary // harmonic statistics over per-root TEPS
	KernelTime          Summary // arithmetic statistics over per-root times
}

// GTEPSHarmonicMean is the headline number (Graph500 ranks by the harmonic
// mean TEPS across the 64 roots).
func (r *Report) GTEPSHarmonicMean() float64 { return r.TEPS.Mean / 1e9 }

// Run executes the benchmark: (1) generate the edge list and (2) construct
// the CSR, unless cfg.Graph supplies it, (3) sample nontrivial search roots
// (and draw the weights of a weighted kernel), (4) run the kernel per root
// on the simulated machine, opened once so every root shares its
// partition, (5) validate every result, (6) compute statistics.
func Run(cfg BenchConfig) (*Report, error) {
	if cfg.Roots == 0 {
		cfg.Roots = DefaultRoots
	}
	if cfg.Kernel == "" {
		cfg.Kernel = core.KernelBFS
	}
	k, err := algos.KernelByName(cfg.Kernel)
	if err != nil {
		return nil, err
	}
	if !HasRule(k.Name) {
		return nil, fmt.Errorf("graph500: Graph500 defines no validation rule for kernel %q (want bfs, sssp or delta-sssp)", k.Name)
	}
	g := cfg.Graph
	var construction float64
	if g == nil {
		kcfg := graph.KroneckerConfig{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed}
		edges, err := graph.GenerateKronecker(kcfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if g, err = graph.BuildCSR(kcfg.NumVertices(), edges); err != nil {
			return nil, err
		}
		construction = time.Since(start).Seconds()
	}
	wg := &graph.WeightedCSR{CSR: g}
	if k.Weighted {
		if wg, err = SSSPWeights(g, cfg.Seed); err != nil {
			return nil, err
		}
	}

	roots, err := SampleRoots(g, cfg.Roots, cfg.Seed)
	if err != nil {
		return nil, err
	}

	run, err := k.Open(cfg.Machine, wg, cfg.Args)
	if err != nil {
		return nil, err
	}

	report := &Report{
		Config:              cfg,
		NumVertices:         g.N,
		NumEdges:            g.NumEdges() / 2,
		ConstructionSeconds: construction,
	}

	metrics := cfg.Machine.Obs.MetricsOf()

	var teps, times []float64
	for _, root := range roots {
		// The kernel attaches one per-level RunTrace per root to the
		// observer; the harness adds the benchmark-level accounting.
		res, err := run(root, nil)
		if err != nil {
			return nil, fmt.Errorf("graph500: %s from root %d: %w", k.Name, root, err)
		}
		vstart := time.Now()
		rr, err := Measure(wg, root, res, !cfg.SkipValidation)
		if err != nil {
			return nil, err
		}
		if rr.Validated && metrics != nil {
			metrics.Counter("graph500.validations").Inc()
			metrics.Histogram("graph500.validation_us").Observe(time.Since(vstart).Microseconds())
		}
		if !cfg.KeepLevels {
			rr.LevelDetail = nil
		}
		report.Runs = append(report.Runs, rr)
		teps = append(teps, rr.TEPS)
		times = append(times, rr.Time)
	}
	report.TEPS = Summarize(teps, true)
	report.KernelTime = Summarize(times, false)
	if metrics != nil {
		metrics.Gauge("graph500.num_vertices").Set(report.NumVertices)
		metrics.Gauge("graph500.num_undirected_edges").Set(report.NumEdges)
		metrics.Gauge("graph500.harmonic_mean_mteps").Set(int64(report.TEPS.Mean / 1e6))
	}
	return report, nil
}

// Measure returns the row of res, the table result of a kernel HasRule
// admits, run from root on wg, with its level detail. When validate is set
// the result is validated first (ValidateParallel for a BFS parent map,
// ValidateSSSP for distances) and a failure is returned as the error.
// TEPS is each kernel's own rate: traversed edges of the discovered
// component for BFS, relaxations for SSSP, over the modelled time.
func Measure(wg *graph.WeightedCSR, root graph.Vertex, res any, validate bool) (RootResult, error) {
	var rr RootResult
	var check func() error
	switch res := res.(type) {
	case *core.Result:
		rr = RootResult{
			Root: root, Visited: res.Visited, TraversedEdges: res.TraversedEdges,
			Levels: len(res.Levels), BottomUpLevels: res.BottomUpLevels,
			Time: res.Time, TEPS: res.GTEPS * 1e9, LevelDetail: res.Levels,
		}
		check = func() error {
			_, err := ValidateParallel(wg.CSR, root, res.Parent, 0)
			return err
		}
	case *algos.SSSPResult:
		rr, check = ssspRow(wg, root, res.Dist, res.Relaxations, res.Info)
	case *algos.DeltaSSSPResult:
		rr, check = ssspRow(wg, root, res.Dist, res.Relaxations, res.Info)
	default:
		return rr, fmt.Errorf("graph500: no validation rule for a %T result", res)
	}
	if validate {
		if err := check(); err != nil {
			return rr, fmt.Errorf("graph500: validation failed for root %d: %w", root, err)
		}
		rr.Validated = true
	}
	return rr, nil
}

// ssspRow is Measure's row of an SSSP result, and the check of its
// distances.
func ssspRow(wg *graph.WeightedCSR, root graph.Vertex, dist []int64, relaxations int64, info *algos.RunInfo) (RootResult, func() error) {
	rr := RootResult{Root: root, TraversedEdges: relaxations, Levels: info.Rounds, Time: info.Time, LevelDetail: info.Levels}
	for _, d := range dist {
		if d < algos.InfDistance {
			rr.Visited++
		}
	}
	if rr.Time > 0 {
		rr.TEPS = float64(relaxations) / rr.Time
	}
	return rr, func() error { return ValidateSSSP(wg, root, dist) }
}

// SampleRoots picks `count` distinct nontrivial search keys (vertices with
// at least one edge, per the specification) deterministically from seed.
func SampleRoots(g *graph.CSR, count int, seed int64) ([]graph.Vertex, error) {
	if count <= 0 {
		return nil, fmt.Errorf("graph500: root count %d", count)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x4772_6150_6835))
	seen := make(map[graph.Vertex]bool, count)
	roots := make([]graph.Vertex, 0, count)
	attempts := 0
	for len(roots) < count {
		attempts++
		if attempts > int(g.N)*4+1000 {
			// Fewer nontrivial vertices than requested roots: allow
			// repeats (tiny graphs in tests), still deterministic.
			if len(roots) == 0 {
				return nil, fmt.Errorf("graph500: no nontrivial vertices to use as roots")
			}
			for len(roots) < count {
				roots = append(roots, roots[len(roots)%len(roots)])
			}
			break
		}
		v := graph.Vertex(rng.Int63n(g.N))
		if seen[v] || g.Degree(v) == 0 {
			continue
		}
		seen[v] = true
		roots = append(roots, v)
	}
	return roots, nil
}

// Print renders the report in the spirit of the reference implementation's
// output block, its rows named after the Graph500 kernel (bfs_time,
// sssp_TEPS, ...). A kernel other than BFS heads the block with its name
// and arguments.
func (r *Report) Print(w io.Writer) {
	name := benchmarkedAs[r.Config.Kernel]
	if r.Config.Kernel != core.KernelBFS {
		args := ""
		if r.Config.Args != "" {
			args = " (" + r.Config.Args + ")"
		}
		fmt.Fprintf(w, "KERNEL:               %s%s\n", r.Config.Kernel, args)
	}
	if r.Config.Graph != nil {
		fmt.Fprintf(w, "SCALE:                - (file input)\n")
		fmt.Fprintf(w, "edgefactor:           - (file input)\n")
	} else {
		fmt.Fprintf(w, "SCALE:                %d\n", r.Config.Scale)
		ef := r.Config.EdgeFactor
		if ef == 0 {
			ef = graph.DefaultEdgeFactor
		}
		fmt.Fprintf(w, "edgefactor:           %d\n", ef)
	}
	fmt.Fprintf(w, "%-22s%d\n", "N"+strings.ToUpper(name)+":", len(r.Runs))
	fmt.Fprintf(w, "num_vertices:         %d\n", r.NumVertices)
	fmt.Fprintf(w, "num_undirected_edges: %d\n", r.NumEdges)
	fmt.Fprintf(w, "machine:              %s, %d nodes\n", r.Config.Machine.Name(), r.Config.Machine.Nodes)
	fmt.Fprintf(w, "construction_time:    %.4g s (host)\n", r.ConstructionSeconds)
	fmt.Fprintf(w, "%-22s%s\n", name+"_time:", r.KernelTime)
	fmt.Fprintf(w, "%-22s%s\n", name+"_TEPS:", r.TEPS)
	fmt.Fprintf(w, "harmonic_mean_GTEPS:  %.4f\n", r.GTEPSHarmonicMean())
}

// PrintDetail renders per-root rows and (when retained) per-level
// breakdowns: direction, critical-path work, traffic per link class.
func (r *Report) PrintDetail(w io.Writer) {
	r.Print(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "root       visited    edges      levels  bottomup  time(ms)   GTEPS")
	for _, rr := range r.Runs {
		fmt.Fprintf(w, "%-10d %-10d %-10d %-7d %-9d %-10.3f %.3f\n",
			rr.Root, rr.Visited, rr.TraversedEdges, rr.Levels, rr.BottomUpLevels,
			rr.Time*1e3, rr.TEPS/1e9)
		PrintLevels(w, rr.LevelDetail)
	}
}

// PrintLevels writes one indented line per level: direction, critical-path
// work, traffic per link class.
func PrintLevels(w io.Writer, levels []perf.LevelStats) {
	for _, l := range levels {
		fmt.Fprintf(w, "    L%-2d %-9s work=%-10d sent=%-10d msgs=%-6d %s\n",
			l.Level, l.Direction, l.MaxNodeProcessedBytes, l.MaxNodeSentBytes,
			l.MaxNodeMessages, l.Net.String())
	}
}
