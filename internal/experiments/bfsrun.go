package experiments

import (
	"fmt"
	"math/bits"

	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/perf"
)

// scaledSuperNodeSize is the super-node size of scaled-down functional
// runs: small enough that even modest node counts exercise the central
// (oversubscribed) network level.
const scaledSuperNodeSize = 16

// Measurement is one functional BFS data point: a machine configuration
// run on a weak-scaling-sized Kronecker graph, with the per-level
// statistics kept for projection to paper scale.
type Measurement struct {
	Nodes           int
	PerNodeVertices int64
	Transport       core.Transport
	Engine          perf.Engine

	GTEPS  float64 // harmonic mean across roots
	Edges  int64   // traversed undirected edges (representative run)
	Levels []perf.LevelStats

	Err error // simulated machine failure, if any
}

// Crashed reports whether the simulated machine failed.
func (m *Measurement) Crashed() bool { return m.Err != nil }

// MeasureBFS runs the configuration functionally: a Kronecker graph with
// 2^perNodeLog vertices per node, `roots` BFS runs, harmonic-mean GTEPS.
// nodes must be a power of two so weak-scaling graph sizes stay exact.
func MeasureBFS(host core.Host, nodes, perNodeLog int, transport core.Transport, engine perf.Engine, roots int, seed int64) *Measurement {
	m := &Measurement{
		Nodes:           nodes,
		PerNodeVertices: int64(1) << uint(perNodeLog),
		Transport:       transport,
		Engine:          engine,
	}
	if nodes <= 0 || bits.OnesCount(uint(nodes)) != 1 {
		m.Err = fmt.Errorf("experiments: node count %d must be a power of two", nodes)
		return m
	}
	if roots <= 0 {
		roots = 2
	}
	sweep, err := newRootSweep(perNodeLog+bits.TrailingZeros(uint(nodes)), roots, seed)
	if err != nil {
		m.Err = err
		return m
	}
	r, err := sweep.run(host.Apply(core.Config{
		Nodes:              nodes,
		SuperNodeSize:      scaledSuperNodeSize,
		Transport:          transport,
		Engine:             engine,
		DirectionOptimized: true,
		HubPrefetch:        true,
		SmallMessageMPE:    true,
	}))
	if err != nil {
		m.Err = err
		return m
	}
	m.GTEPS, m.Edges, m.Levels = r.GTEPS, r.First.TraversedEdges, r.First.Levels
	return m
}

// rootSweep is a Kronecker graph and the roots sampled on it: what every
// functional experiment measures its configurations over.
type rootSweep struct {
	g     *graph.CSR
	roots []graph.Vertex
}

func newRootSweep(scale, roots int, seed int64) (*rootSweep, error) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	list, err := graph500.SampleRoots(g, roots, seed)
	if err != nil {
		return nil, err
	}
	return &rootSweep{g: g, roots: list}, nil
}

// sweepResult is one configuration measured from every root of a sweep.
type sweepResult struct {
	GTEPS    float64 // harmonic mean across roots
	NetBytes int64   // network bytes of every level of every run
	// BottomUpLevels and Levels are summed across roots.
	BottomUpLevels, Levels int
	// First is the first root's run.
	First *core.Result
}

// run builds a runner for cfg on the sweep's graph and runs every root.
func (s *rootSweep) run(cfg core.Config) (sweepResult, error) {
	var r sweepResult
	runner, err := core.NewRunner(cfg, s.g)
	if err != nil {
		return r, err
	}
	var invSum float64
	for i, root := range s.roots {
		res, err := runner.Run(root)
		if err != nil {
			return r, err
		}
		if res.GTEPS > 0 {
			invSum += 1 / res.GTEPS
		}
		for _, l := range res.Levels {
			for _, b := range l.Net.Bytes {
				r.NetBytes += b
			}
		}
		r.BottomUpLevels += res.BottomUpLevels
		r.Levels += len(res.Levels)
		if i == 0 {
			r.First = res
		}
	}
	if invSum > 0 {
		r.GTEPS = float64(len(s.roots)) / invSum
	}
	return r, nil
}
