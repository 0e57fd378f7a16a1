// Package swbfs is a Go reproduction of "Scalable Graph Traversal on Sunway
// TaihuLight with Ten Million Cores" (Lin et al., IPDPS 2017): a
// distributed, direction-optimizing BFS engine running on a simulated
// Sunway TaihuLight — SW26010 processors with MPE/CPE-cluster module
// processing, contention-free register-mesh data shuffling, a two-level
// oversubscribed fat tree, and the paper's group-based message batching —
// together with the Graph500 harness used to evaluate it.
//
// Quick start:
//
//	g, _ := swbfs.GenerateGraph(swbfs.GraphConfig{Scale: 16, Seed: 42})
//	m, _ := swbfs.NewMachine(swbfs.DefaultMachine(64), g)
//	res, _ := m.BFS(12345)
//	fmt.Printf("visited %d vertices at %.2f modelled GTEPS\n", res.Visited, res.GTEPS)
//
// The machine is a simulation: BFS results (parent maps) are real and
// validated, while times and GTEPS come from a calibrated performance
// model. See DESIGN.md for the substitution map and EXPERIMENTS.md for
// paper-versus-measured numbers.
package swbfs

import (
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/perf"
)

// Graph is a symmetric CSR graph (see Validate/Neighbors/Degree methods).
type Graph = graph.CSR

// Vertex identifies a vertex; NoVertex marks missing parents.
type Vertex = graph.Vertex

// NoVertex is the "no parent" sentinel.
const NoVertex = graph.NoVertex

// Edge is a directed edge of the raw generator output.
type Edge = graph.Edge

// GraphConfig parametrizes the Graph500 Kronecker generator.
type GraphConfig = graph.KroneckerConfig

// MachineConfig configures the simulated machine: node count, transport
// (direct vs group-based relay), engine (MPE vs CPE clusters), direction
// optimization, hub prefetch and the MPI resource model.
type MachineConfig = core.Config

// Result is one BFS run's outcome: the parent map plus modelled
// performance.
type Result = core.Result

// Transport and engine selectors, mirroring Figure 11's four
// configurations.
const (
	TransportDirect = core.TransportDirect
	TransportRelay  = core.TransportRelay
	EngineMPE       = perf.EngineMPE
	EngineCPE       = perf.EngineCPE
)

// Codec compresses message payloads on the simulated wire; see
// AdaptiveCodec. Message compression is the paper's stated future-work
// integration (Section 7). A nil Codec is the identity wire format (16
// bytes per pair).
type Codec = comm.PayloadCodec

// AdaptiveCodec picks the cheapest of raw, varint-delta and bitmap per
// batch by measuring the exact encoded size of each, and tags the payload
// with its choice.
type AdaptiveCodec = comm.AdaptiveCodec

// CodecByName resolves a codec by its flag/checkpoint name: "", "raw" or
// "adaptive".
func CodecByName(name string) (Codec, error) { return comm.CodecByName(name) }

// Graph500Config configures a full benchmark execution (generation, 64
// roots, kernel, validation, statistics).
type Graph500Config = graph500.BenchConfig

// Graph500Report is the benchmark outcome with Graph500-style statistics.
type Graph500Report = graph500.Report

// GenerateGraph generates a Kronecker graph and constructs its CSR
// (self loops removed, symmetrized, deduplicated).
func GenerateGraph(cfg GraphConfig) (*Graph, error) {
	return graph.BuildKronecker(cfg)
}

// BuildGraph constructs a CSR from a raw edge list over n vertices.
func BuildGraph(n int64, edges []Edge) (*Graph, error) {
	return graph.BuildCSR(n, edges)
}

// DefaultMachine is the paper's production configuration — relay transport,
// CPE-cluster processing, direction optimization, hub prefetch, small-
// message fast path — for the given simulated node count.
func DefaultMachine(nodes int) MachineConfig {
	return core.DefaultConfig(nodes)
}

// Machine runs BFS kernels of one graph on one simulated machine
// configuration. Safe for sequential reuse across roots; create one
// Machine per graph+configuration pair.
type Machine struct {
	runner *core.Runner
	g      *Graph
}

// NewMachine partitions the graph over the configured machine. It fails
// when the configuration is architecturally impossible (e.g. Direct+CPE
// beyond the 256-node SPM budget).
func NewMachine(cfg MachineConfig, g *Graph) (*Machine, error) {
	r, err := core.NewRunner(cfg, g)
	if err != nil {
		return nil, err
	}
	return &Machine{runner: r, g: g}, nil
}

// BFS runs one rooted BFS on the simulated machine.
func (m *Machine) BFS(root Vertex) (*Result, error) {
	return m.runner.Run(root)
}

// Graph returns the machine's graph.
func (m *Machine) Graph() *Graph { return m.g }

// Config returns the machine configuration with defaults applied.
func (m *Machine) Config() MachineConfig { return m.runner.Config() }

// ValidateBFS checks a parent map per the Graph500 rules and returns the
// per-vertex levels.
func ValidateBFS(g *Graph, root Vertex, parent []Vertex) ([]int64, error) {
	return graph500.Validate(g, root, parent)
}

// ReferenceBFS is the sequential oracle BFS (parents and hop levels).
func ReferenceBFS(g *Graph, root Vertex) (parent []Vertex, level []int64) {
	return core.ReferenceBFS(g, root)
}

// RunGraph500 executes the full benchmark: generate, sample roots,
// construct, run the kernel per root on the simulated machine, validate,
// and summarize TEPS with harmonic-mean statistics.
func RunGraph500(cfg Graph500Config) (*Graph500Report, error) {
	return graph500.Run(cfg)
}
