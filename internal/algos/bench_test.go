package algos_test

import (
	"fmt"
	"testing"

	"swbfs/internal/algos"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
)

// benchGraphs caches the benchmark instance per scale across
// sub-benchmarks, mirroring core's bench harness.
var benchGraphs = map[int]*graph.CSR{}

func benchGraph(b *testing.B, scale int) *graph.CSR {
	b.Helper()
	if g, ok := benchGraphs[scale]; ok {
		return g
	}
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: scale, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[scale] = g
	return g
}

// reportGTEPS attributes host (not modelled) throughput to the benchmark:
// billions of processed edges per wall second. Modelled numbers are
// identical at every width by the parity contract; host GTEPS is what the
// worker fan-out exists to improve.
func reportGTEPS(b *testing.B, edges int64) {
	b.Helper()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(edges)/b.Elapsed().Seconds()/1e9, "GTEPS")
	}
}

// benchConfig is the kernel benchmark machine: the production-shaped relay
// fabric the BFS level benchmark uses, swept across worker widths.
func benchConfig(workers int) core.Config {
	return core.Config{
		Nodes: 16, Transport: core.TransportRelay, Engine: perf.EngineCPE,
		DirectionOptimized: true, HubPrefetch: true, SmallMessageMPE: true,
		Workers: workers,
	}
}

// frontierEdges sums the per-round frontier edge counts — the work the
// generators and handlers actually performed.
func frontierEdges(info *algos.RunInfo) int64 {
	var edges int64
	for _, s := range info.Levels {
		edges += s.FrontierEdges
	}
	return edges
}

// BenchmarkWCCRound measures full label-propagation runs to fixpoint
// across worker widths.
func BenchmarkWCCRound(b *testing.B) {
	g := benchGraph(b, 14)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchConfig(workers)
			var edges int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := algos.WCC(cfg, g)
				if err != nil {
					b.Fatal(err)
				}
				edges += frontierEdges(res.Info)
			}
			b.StopTimer()
			reportGTEPS(b, edges)
		})
	}
}

// BenchmarkPageRankIteration measures 8-iteration PageRank runs — every
// round pushes the full edge set, so this is the densest kernel.
func BenchmarkPageRankIteration(b *testing.B) {
	g := benchGraph(b, 14)
	const iterations = 8
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchConfig(workers)
			var edges int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := algos.PageRank(cfg, g, iterations, 0)
				if err != nil {
					b.Fatal(err)
				}
				edges += frontierEdges(res.Info)
			}
			b.StopTimer()
			reportGTEPS(b, edges)
		})
	}
}

// BenchmarkKCorePeel measures full k-core peels to fixpoint across worker
// widths (k=4 removes roughly half the Kronecker vertices).
func BenchmarkKCorePeel(b *testing.B) {
	g := benchGraph(b, 14)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchConfig(workers)
			var edges int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := algos.KCore(cfg, g, 4)
				if err != nil {
					b.Fatal(err)
				}
				edges += frontierEdges(res.Info)
			}
			b.StopTimer()
			reportGTEPS(b, edges)
		})
	}
}
