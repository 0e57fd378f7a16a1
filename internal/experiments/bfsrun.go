package experiments

import (
	"fmt"
	"math/bits"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// Host is the host-side half of a functional measurement's configuration:
// the knobs a sweep driver (cmd/swbfs-bench) takes from its command line
// and every experiment stamps onto each core.Config it runs. None of them
// moves a modelled number except the codecs, and those only through the
// bytes they save on the wire. The zero value runs with core's defaults.
type Host struct {
	// Workers is the per-node worker-pool width (0 = core's default).
	Workers int
	// Obs receives metrics, traces, spans and live events of every run.
	Obs *obs.Observer
	// ChaosPlan is injected verbatim; otherwise a non-zero ChaosSeed
	// derives a fresh random plan per configuration (node counts vary
	// across a sweep, and plan node IDs must stay in range).
	ChaosPlan *chaos.Plan
	ChaosSeed int64
	// LevelTimeout arms the per-level watchdog and StragglerFactor the
	// straggler detector (0 = off; see docs/CHAOS.md).
	LevelTimeout    time.Duration
	StragglerFactor float64
	// FlightDump is where an aborted run writes its post-mortem ("" =
	// in-memory only).
	FlightDump string
	// CheckpointEvery and CheckpointPath arm level-boundary checkpointing
	// (see docs/CHAOS.md "Checkpoint & resume").
	CheckpointEvery int
	CheckpointPath  string
	// Codec and CodecBackward select the wire codecs (nil = leave the
	// configuration's own; CodecBackward overrides the backward channel).
	Codec, CodecBackward comm.PayloadCodec
}

// Apply stamps the host knobs onto cfg. Set cfg.Nodes first: a seeded chaos
// plan is drawn for that node count.
func (h Host) Apply(cfg core.Config) core.Config {
	cfg.Workers = h.Workers
	cfg.Obs = h.Obs
	cfg.LevelTimeout = h.LevelTimeout
	cfg.StragglerFactor = h.StragglerFactor
	cfg.FlightDump = h.FlightDump
	cfg.CheckpointEvery = h.CheckpointEvery
	cfg.CheckpointPath = h.CheckpointPath
	if h.Codec != nil {
		cfg.Codec = h.Codec
	}
	if h.CodecBackward != nil {
		cfg.CodecBackward = h.CodecBackward
	}
	if h.ChaosPlan != nil {
		cfg.Chaos = h.ChaosPlan
	} else if h.ChaosSeed != 0 {
		plan := chaos.NewRandomPlan(h.ChaosSeed, cfg.Nodes)
		cfg.Chaos = &plan
	}
	return cfg
}

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
func MeasureBFS(host Host, nodes, perNodeLog int, transport core.Transport, engine perf.Engine, roots int, seed int64) *Measurement {
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
	scale := perNodeLog + bits.TrailingZeros(uint(nodes))

	cfg := host.Apply(core.Config{
		Nodes:              nodes,
		SuperNodeSize:      scaledSuperNodeSize,
		Transport:          transport,
		Engine:             engine,
		DirectionOptimized: true,
		HubPrefetch:        true,
		SmallMessageMPE:    true,
	})

	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: scale, Seed: seed})
	if err != nil {
		m.Err = err
		return m
	}
	runner, err := core.NewRunner(cfg, g)
	if err != nil {
		m.Err = err
		return m
	}
	rootList, err := graph500.SampleRoots(g, roots, seed)
	if err != nil {
		m.Err = err
		return m
	}

	var invSum float64
	for i, root := range rootList {
		res, err := runner.Run(root)
		if err != nil {
			m.Err = err
			return m
		}
		if res.GTEPS > 0 {
			invSum += 1 / res.GTEPS
		}
		if i == 0 {
			m.Edges = res.TraversedEdges
			m.Levels = res.Levels
		}
	}
	if invSum > 0 {
		m.GTEPS = float64(len(rootList)) / invSum
	}
	return m
}
