package experiments

import (
	"fmt"
	"math/bits"

	"swbfs/internal/core"
	"swbfs/internal/perf"
)

// strongScaling complements the paper's weak-scaling study (Figure 12)
// with the other axis downstream users ask about: a fixed problem of
// scale s.scale divided over the s.nodes machines. It starts at 4 nodes:
// a single node pays no network at all in the model, which would make
// every multi-node point look like a slowdown regardless of the machine.
// At laptop-feasible problem sizes the table documents where strong
// scaling stops paying on this machine: aggregate GTEPS *declines* once
// the per-node share drops into the latency/termination floor — the very
// mechanism the paper cites for Figure 12's curve separation ("when data
// size is small ... the high latency is the main reason for
// inefficiency"). Speedup and efficiency are relative to the first row
// that ran.
func strongScaling(o Options, s shape) (*Table, error) {
	t := &Table{
		ID:     "strong",
		Title:  fmt.Sprintf("Strong scaling, scale-%d Kronecker, Relay CPE", s.scale),
		Header: []string{"nodes", "GTEPS", "speedup", "efficiency"},
	}
	var base float64
	var baseNodes int
	for _, nodes := range s.nodes {
		if nodes <= 0 || bits.OnesCount(uint(nodes)) != 1 {
			t.AddRow(fmt.Sprint(nodes), "skip (not a power of two)", "-", "-")
			continue
		}
		cfg := o.machine(nodes)
		cfg.Transport, cfg.Engine = core.TransportRelay, perf.EngineCPE
		r, err := o.bench(cfg, s.scale)
		if err != nil {
			t.AddRow(fmt.Sprint(nodes), crashCell(err), "-", "-")
			continue
		}
		gteps := r.GTEPSHarmonicMean()
		if base == 0 {
			base, baseNodes = gteps, nodes
		}
		speedup := gteps / base
		eff := speedup / float64(nodes) * float64(baseNodes)
		t.AddRow(fmt.Sprint(nodes), fmt.Sprintf("%.3f", gteps),
			fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%.0f%%", eff*100))
	}
	t.AddNote("fixed total problem; %d roots per point; efficiency relative to the first row", o.Roots)
	t.AddNote("declining aggregate GTEPS marks the latency-bound regime (paper: 'the high latency is the main reason for inefficiency' at small per-node sizes)")
	return t, nil
}
