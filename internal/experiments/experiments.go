package experiments

import (
	"fmt"

	"swbfs/internal/core"
)

// Options configures every experiment.
type Options struct {
	// Seed draws every Kronecker graph and its roots (0 means 20160624).
	Seed int64
	// Roots is the number of BFS roots per data point (0 means 2).
	Roots int
	// Size picks each experiment's shape from its row of All.
	Size Size
	// Host carries the driver's host-side knobs onto every functional run.
	Host core.Host
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 20160624
	}
	if o.Roots == 0 {
		o.Roots = 2
	}
	return o
}

// Size selects an experiment's shape: Default keeps `swbfs-bench all`
// near a minute, Quick at seconds, and Full runs up to 256 functional
// nodes.
type Size int

const (
	Default Size = iota
	Quick
	Full
	numSizes
)

// shape is an experiment's problem at one Size. Each experiment reads the
// fields it needs.
type shape struct {
	// nodes are the functional node counts (powers of two), or the one
	// machine of a fixed-machine study.
	nodes []int
	// projected are the node counts reached by the weak-scaling projection.
	projected []int
	// perNodeLogs are log2 vertices per node, one per curve.
	perNodeLogs []int
	// scale is the total problem size of a fixed-problem study.
	scale int
}

// Artifact is one table or figure of the paper's evaluation.
type Artifact struct {
	ID    string
	sizes [numSizes]shape
	build func(Options, shape) (*Table, error)
}

// Build regenerates the artifact at the options' Size.
func (a Artifact) Build(o Options) (*Table, error) {
	if o.Size < 0 || o.Size >= numSizes {
		return nil, fmt.Errorf("experiments: unknown size %d", o.Size)
	}
	return a.build(o.withDefaults(), a.sizes[o.Size])
}

// fixed adapts an artifact that no Options change.
func fixed(build func() *Table) func(Options, shape) (*Table, error) {
	return func(Options, shape) (*Table, error) { return build(), nil }
}

// headlineSizes is the functional run that Table 2's reproduction row and
// the headline project to the full machine.
var headlineSizes = [numSizes]shape{
	Default: {nodes: []int{64}, perNodeLogs: []int{13}},
	Quick:   {nodes: []int{64}, perNodeLogs: []int{11}},
	Full:    {nodes: []int{64}, perNodeLogs: []int{13}},
}

// All lists every artifact in paper order: what `swbfs-bench all` prints.
var All = []Artifact{
	{ID: "table1", build: fixed(table1)},
	{ID: "fig3", build: fixed(fig3)},
	{ID: "fig5", build: fixed(fig5)},
	{ID: "regbus", build: func(Options, shape) (*Table, error) { return regBus(16384) }},
	{ID: "relaybw", build: fixed(relayBW)},
	{ID: "msgcount", build: fixed(msgCount)},
	{ID: "fig11", build: fig11, sizes: [numSizes]shape{
		Default: {nodes: []int{1, 4, 16, 64}, projected: []int{256, 1024, 4096, 16384, 40960}, perNodeLogs: []int{13}},
		Quick:   {nodes: []int{1, 4, 16}, projected: []int{256, 1024, 4096, 16384, 40960}, perNodeLogs: []int{11}},
		Full:    {nodes: []int{1, 4, 16, 64, 256}, projected: []int{256, 1024, 4096, 16384, 40960}, perNodeLogs: []int{13}},
	}},
	{ID: "fig12", build: fig12, sizes: [numSizes]shape{
		Default: {nodes: []int{4, 16, 64}, projected: []int{256, 1024, 4096, 16384, 40768}, perNodeLogs: []int{9, 11, 13}},
		Quick:   {nodes: []int{4, 16}, projected: []int{256, 1024, 4096, 16384, 40768}, perNodeLogs: []int{7, 9, 11}},
		Full:    {nodes: []int{4, 16, 64, 256}, projected: []int{256, 1024, 4096, 16384, 40768}, perNodeLogs: []int{9, 11, 13}},
	}},
	{ID: "strong", build: strongScaling, sizes: [numSizes]shape{
		Default: {nodes: []int{4, 8, 16, 32, 64}, scale: 18},
		Quick:   {nodes: []int{4, 8, 16, 32, 64}, scale: 15},
		Full:    {nodes: []int{4, 8, 16, 32, 64}, scale: 18},
	}},
	{ID: "table2", build: table2, sizes: headlineSizes},
	{ID: "headline", build: headlineTable, sizes: headlineSizes},
	{ID: "ablations", build: ablations, sizes: [numSizes]shape{
		Default: {nodes: []int{8}, scale: 15},
		Quick:   {nodes: []int{8}, scale: 13},
		Full:    {nodes: []int{8}, scale: 15},
	}},
	{ID: "policy", build: policySweep, sizes: [numSizes]shape{
		Default: {nodes: []int{8}, scale: 14},
		Quick:   {nodes: []int{8}, scale: 12},
		Full:    {nodes: []int{8}, scale: 14},
	}},
}
