package experiments

import (
	"errors"
	"fmt"
	"math/bits"

	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/perf"
	"swbfs/internal/sw"
)

// scaledSuperNodeSize is the super-node size of scaled-down functional
// runs: small enough that even modest node counts exercise the central
// (oversubscribed) network level.
const scaledSuperNodeSize = 16

// machine is the production configuration on nodes, grouped by the
// scaled-down super node, with the host's knobs applied.
func (o Options) machine(nodes int) core.Config {
	cfg := core.DefaultConfig(nodes)
	cfg.SuperNodeSize = scaledSuperNodeSize
	return o.Host.Apply(cfg)
}

// bench runs the Graph500 benchmark of cfg from the options' roots on a
// scale-`scale` Kronecker graph, validating every root and keeping its
// levels. A sweep that measures several configurations on one graph passes
// the edge list it generated once; with nil edges the harness generates it.
func (o Options) bench(cfg core.Config, scale int, edges []graph.Edge) (*graph500.Report, error) {
	var n int64
	if edges != nil {
		n = int64(1) << uint(scale)
	}
	return graph500.Run(graph500.BenchConfig{
		Scale: scale, Edges: edges, NumVertices: n,
		Seed: o.Seed, Roots: o.Roots, KeepLevels: true, Machine: cfg,
	})
}

// edges generates the Kronecker edge list a sweep shares.
func (o Options) edges(scale int) ([]graph.Edge, error) {
	return graph.GenerateKronecker(graph.KroneckerConfig{Scale: scale, Seed: o.Seed})
}

// measurement is one functional BFS data point: a machine configuration
// run on a weak-scaling-sized Kronecker graph, with the first root's
// per-level statistics kept for projection to paper scale.
type measurement struct {
	nodes           int
	perNodeVertices int64
	transport       core.Transport
	engine          perf.Engine

	gteps  float64 // harmonic mean across roots
	edges  int64   // traversed undirected edges of the first root
	levels []perf.LevelStats
}

// measureBFS runs the production configuration with the given transport
// and engine on a Kronecker graph of 2^perNodeLog vertices per node. nodes
// must be a power of two so weak-scaling graph sizes stay exact. The error
// is the simulated machine's failure, if any.
func measureBFS(o Options, nodes, perNodeLog int, transport core.Transport, engine perf.Engine) (*measurement, error) {
	if nodes <= 0 || bits.OnesCount(uint(nodes)) != 1 {
		return nil, fmt.Errorf("experiments: node count %d must be a power of two", nodes)
	}
	cfg := o.machine(nodes)
	cfg.Transport, cfg.Engine = transport, engine
	r, err := o.bench(cfg, perNodeLog+bits.TrailingZeros(uint(nodes)), nil)
	if err != nil {
		return nil, err
	}
	return &measurement{
		nodes:           nodes,
		perNodeVertices: int64(1) << uint(perNodeLog),
		transport:       transport,
		engine:          engine,
		gteps:           r.GTEPSHarmonicMean(),
		edges:           r.Runs[0].TraversedEdges,
		levels:          r.Runs[0].LevelDetail,
	}, nil
}

func crashCell(err error) string {
	var overflow *sw.ErrSPMOverflow
	var conn *comm.ErrConnMemory
	switch {
	case errors.Is(err, core.ErrCPESPM) || errors.As(err, &overflow):
		return "CRASH(SPM)"
	case errors.As(err, &conn):
		return "CRASH(MPI mem)"
	default:
		return "CRASH"
	}
}
