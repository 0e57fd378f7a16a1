package experiments

import (
	"fmt"

	"swbfs/internal/core"
	"swbfs/internal/perf"
)

// Fig11Options scales the technique-comparison sweep.
type Fig11Options struct {
	// FunctionalNodes are node counts run on the functional simulator
	// (powers of two). Default {1, 4, 16, 64}.
	FunctionalNodes []int
	// ProjectedNodes are extended via the weak-scaling projection.
	// Default {256, 1024, 4096, 16384, 40960}.
	ProjectedNodes []int
	// PerNodeLog is log2 of the vertices per node (default 13 — the paper
	// ran 16M ≈ 2^24 per node; the scaled-down default keeps functional
	// runs laptop-sized while staying bandwidth-bound rather than
	// latency-bound, which is the regime Figure 11 measures).
	PerNodeLog int
	// Roots per data point (default 2).
	Roots int
	// Seed for graph generation.
	Seed int64
	// Host carries the driver's host-side knobs onto every run.
	Host core.Host
}

func (o Fig11Options) withDefaults() Fig11Options {
	if o.FunctionalNodes == nil {
		o.FunctionalNodes = []int{1, 4, 16, 64}
	}
	if o.ProjectedNodes == nil {
		o.ProjectedNodes = []int{256, 1024, 4096, 16384, 40960}
	}
	if o.PerNodeLog == 0 {
		o.PerNodeLog = 13
	}
	if o.Roots == 0 {
		o.Roots = 2
	}
	if o.Seed == 0 {
		o.Seed = 20160624
	}
	return o
}

// fig11Config is one of the four lines of Figure 11.
type fig11Config struct {
	transport core.Transport
	engine    perf.Engine
}

var fig11Configs = []fig11Config{
	{core.TransportDirect, perf.EngineMPE},
	{core.TransportDirect, perf.EngineCPE},
	{core.TransportRelay, perf.EngineMPE},
	{core.TransportRelay, perf.EngineCPE},
}

// Fig11 reproduces the performance comparison of techniques: GTEPS per
// node count for Direct/Relay x MPE/CPE. Expected shape, per the paper:
// CPE rows ~10x their MPE counterparts; Direct CPE crashes past 256 nodes
// (SPM); Direct MPE flattens with scale and crashes at 16,384 nodes (MPI
// memory); Relay CPE scales to the whole machine.
func Fig11(opts Fig11Options) *Table {
	opts = opts.withDefaults()
	t := &Table{
		ID:     "fig11",
		Title:  "Performance comparison of techniques (Figure 11)",
		Header: []string{"nodes", "Direct MPE", "Direct CPE", "Relay MPE", "Relay CPE", "source"},
	}

	// Keep the largest healthy functional measurement per configuration
	// for projection.
	last := make(map[fig11Config]*Measurement)

	for _, nodes := range opts.FunctionalNodes {
		row := []string{fmt.Sprint(nodes)}
		for _, cfg := range fig11Configs {
			m := MeasureBFS(opts.Host, nodes, opts.PerNodeLog, cfg.transport, cfg.engine, opts.Roots, opts.Seed)
			if m.Crashed() {
				row = append(row, crashCell(m.Err))
				continue
			}
			last[cfg] = m
			row = append(row, fmt.Sprintf("%.3f", m.GTEPS))
		}
		row = append(row, "measured")
		t.AddRow(row...)
	}

	for _, nodes := range opts.ProjectedNodes {
		row := []string{fmt.Sprint(nodes)}
		for _, cfg := range fig11Configs {
			m := last[cfg]
			if m == nil {
				row = append(row, "n/a")
				continue
			}
			p := Project(m, nodes)
			if p.Crashed() {
				row = append(row, crashCell(p.Err))
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", p.GTEPS))
		}
		row = append(row, "modelled")
		t.AddRow(row...)
	}

	t.AddNote("GTEPS; 2^%d vertices per node (paper: 16M per node)", opts.PerNodeLog)
	t.AddNote("paper shape: CPE ~10x MPE; Direct CPE crashes >256 nodes (SPM); Direct MPE caps at 4096 and crashes at 16384 (MPI memory); Relay CPE scales to the full machine")
	return t
}

func crashCell(err error) string {
	switch {
	case err == nil:
		return "CRASH"
	case isSPMError(err):
		return "CRASH(SPM)"
	case isConnError(err):
		return "CRASH(MPI mem)"
	default:
		return "CRASH"
	}
}
