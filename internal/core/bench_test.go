package core

import (
	"fmt"
	"testing"

	"swbfs/internal/graph"
	"swbfs/internal/perf"
)

// benchGraph builds the benchmark instance once per scale and caches it
// across sub-benchmarks.
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

// reportGTEPS attributes host (not modelled) traversal throughput to the
// benchmark: billions of traversed edges per wall second.
func reportGTEPS(b *testing.B, edges int64) {
	b.Helper()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(edges)/b.Elapsed().Seconds()/1e9, "GTEPS")
	}
}

// BenchmarkBFSLevel measures the full per-level pipeline — generators,
// transport, handlers, policy — on the paper's production configuration,
// across worker-pool widths. The modelled GTEPS is identical for every
// width by construction; the reported metric is host GTEPS, which is what
// the worker pools exist to improve.
func BenchmarkBFSLevel(b *testing.B) {
	g := benchGraph(b, 14)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{
				Nodes: 16, Transport: TransportRelay, Engine: perf.EngineCPE,
				DirectionOptimized: true, HubPrefetch: true, SmallMessageMPE: true,
				Workers: workers,
			}
			r, err := NewRunner(cfg, g)
			if err != nil {
				b.Fatal(err)
			}
			var edges int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Run(1)
				if err != nil {
					b.Fatal(err)
				}
				edges += res.TraversedEdges
			}
			b.StopTimer()
			reportGTEPS(b, edges)
		})
	}
}

// BenchmarkForwardGenerator isolates the top-down hot loop: direction
// optimization off, so every level is a frontier expansion through
// forwardScan and the forward handler.
func BenchmarkForwardGenerator(b *testing.B) {
	g := benchGraph(b, 14)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{
				Nodes: 16, Transport: TransportRelay, Engine: perf.EngineCPE,
				SmallMessageMPE: true,
				Workers:         workers,
			}
			r, err := NewRunner(cfg, g)
			if err != nil {
				b.Fatal(err)
			}
			var edges int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Run(1)
				if err != nil {
					b.Fatal(err)
				}
				edges += res.TraversedEdges
			}
			b.StopTimer()
			reportGTEPS(b, edges)
		})
	}
}
