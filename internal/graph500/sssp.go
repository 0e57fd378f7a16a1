package graph500

import (
	"fmt"

	"swbfs/internal/algos"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// The SSSP kernel: Graph500 added single-source shortest paths as its
// second kernel (spec v3) shortly after the paper's publication, and the
// paper itself names SSSP first among the algorithms its techniques
// transfer to (Section 8). RunSSSP benchmarks the suite's distributed
// SSSP under the same protocol as BFS: sample roots, run the kernel on the
// simulated machine, validate every result, report harmonic-mean TEPS.

// SSSPBenchConfig configures an SSSP benchmark execution.
type SSSPBenchConfig struct {
	Scale      int
	EdgeFactor int
	Seed       int64
	Roots      int
	// Delta selects delta-stepping bucket width (0 = frontier
	// Bellman-Ford, the suite's default SSSP).
	Delta   int64
	Machine core.Config
}

// SSSPReport is the benchmark outcome.
type SSSPReport struct {
	Config                SSSPBenchConfig
	NumVertices, NumEdges int64
	Runs                  []SSSPRunResult
	TEPS                  Summary
	KernelTime            Summary
}

// SSSPRunResult records one kernel invocation.
type SSSPRunResult struct {
	Root        graph.Vertex
	Reached     int64
	Relaxations int64
	Rounds      int
	Time        float64
	TEPS        float64
}

// GTEPSHarmonicMean is the headline number.
func (r *SSSPReport) GTEPSHarmonicMean() float64 { return r.TEPS.Mean / 1e9 }

// SSSPWeights draws the weights of the SSSP benchmark's graph from seed:
// uniform in [1, 255], the spec's byte-sized weights. RunSSSP runs on
// them, and a resumed weighted kernel rebuilds them the same way.
func SSSPWeights(g *graph.CSR, seed int64) (*graph.WeightedCSR, error) {
	return graph.GenerateWeights(g, 255, seed)
}

// RunSSSP executes the SSSP benchmark.
func RunSSSP(cfg SSSPBenchConfig) (*SSSPReport, error) {
	if cfg.Roots == 0 {
		cfg.Roots = DefaultRoots
	}
	g, err := graph.BuildKronecker(graph.KroneckerConfig{
		Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	wg, err := SSSPWeights(g, cfg.Seed)
	if err != nil {
		return nil, err
	}
	roots, err := SampleRoots(g, cfg.Roots, cfg.Seed)
	if err != nil {
		return nil, err
	}

	report := &SSSPReport{
		Config:      cfg,
		NumVertices: g.N,
		NumEdges:    g.NumEdges() / 2,
	}
	var teps, times []float64
	for _, root := range roots {
		var dist []int64
		var relaxations int64
		var rounds int
		var seconds float64
		if cfg.Delta > 0 {
			res, err := algos.DeltaSSSP(cfg.Machine, wg, root, cfg.Delta)
			if err != nil {
				return nil, fmt.Errorf("graph500: SSSP from root %d: %w", root, err)
			}
			dist, relaxations, rounds, seconds = res.Dist, res.Relaxations, res.Info.Rounds, res.Info.Time
		} else {
			res, err := algos.SSSP(cfg.Machine, wg, root)
			if err != nil {
				return nil, fmt.Errorf("graph500: SSSP from root %d: %w", root, err)
			}
			dist, relaxations, rounds, seconds = res.Dist, res.Relaxations, res.Info.Rounds, res.Info.Time
		}
		if err := ValidateSSSP(wg, root, dist); err != nil {
			return nil, fmt.Errorf("graph500: SSSP validation failed for root %d: %w", root, err)
		}
		var reached int64
		for _, d := range dist {
			if d < algos.InfDistance {
				reached++
			}
		}
		rr := SSSPRunResult{
			Root:        root,
			Reached:     reached,
			Relaxations: relaxations,
			Rounds:      rounds,
			Time:        seconds,
		}
		if seconds > 0 {
			rr.TEPS = float64(relaxations) / seconds
		}
		report.Runs = append(report.Runs, rr)
		teps = append(teps, rr.TEPS)
		times = append(times, rr.Time)
	}
	report.TEPS = Summarize(teps, true)
	report.KernelTime = Summarize(times, false)
	return report, nil
}

// ValidateSSSP checks a distance array against the Graph500 SSSP rules:
//
//  1. dist[root] == 0;
//  2. every edge (u, v, w) is slack-consistent: |dist[u] - dist[v]| <= w,
//     and both endpoints are reached or both unreached;
//  3. every reached non-root vertex has a tight incoming edge
//     (dist[v] == dist[u] + w for some neighbour u) — distances are
//     achievable, not just consistent.
func ValidateSSSP(wg *graph.WeightedCSR, root graph.Vertex, dist []int64) error {
	if int64(len(dist)) != wg.N {
		return fmt.Errorf("graph500: distance array has %d entries for %d vertices", len(dist), wg.N)
	}
	if root < 0 || int64(root) >= wg.N {
		return fmt.Errorf("graph500: root %d out of range", root)
	}
	if dist[root] != 0 {
		return fmt.Errorf("graph500: dist[root=%d] = %d, want 0", root, dist[root])
	}
	for u := graph.Vertex(0); int64(u) < wg.N; u++ {
		uReached := dist[u] < algos.InfDistance
		if !uReached && dist[u] != algos.InfDistance {
			return fmt.Errorf("graph500: vertex %d has garbage distance %d", u, dist[u])
		}
		lo, hi := wg.RowPtr[u], wg.RowPtr[u+1]
		tight := u == root || !uReached
		for i := lo; i < hi; i++ {
			v := wg.Col[i]
			w := wg.Weights.W[i]
			vReached := dist[v] < algos.InfDistance
			if uReached != vReached {
				return fmt.Errorf("graph500: edge (%d, %d) spans reached/unreached", u, v)
			}
			if !uReached {
				continue
			}
			d := dist[u] - dist[v]
			if d > w || -d > w {
				return fmt.Errorf("graph500: edge (%d, %d, w=%d) violates slack: %d vs %d",
					u, v, w, dist[u], dist[v])
			}
			if dist[u] == dist[v]+w {
				tight = true
			}
		}
		if uReached && !tight {
			return fmt.Errorf("graph500: reached vertex %d (dist %d) has no tight incoming edge", u, dist[u])
		}
	}
	return nil
}
