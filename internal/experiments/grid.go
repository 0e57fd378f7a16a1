package experiments

import (
	"fmt"
	"math/bits"
	"slices"

	"swbfs/internal/core"
	"swbfs/internal/perf"
)

// curve is one column of a measured-then-projected grid: a machine
// configuration at a per-node problem size.
type curve struct {
	transport  core.Transport
	engine     perf.Engine
	perNodeLog int
}

// grid adds one row per functional node count of s, every curve measured
// there, then one row per projected node count, every curve projected from
// its largest healthy measurement: the layout of Figures 11 and 12. The
// points are measured in graph-scale order, as bench keeps only its newest
// graph: in row order, each scale a later row repeats would be built again.
func grid(t *Table, o Options, s shape, curves []curve) {
	k := len(curves)
	order := make([]int, len(s.nodes)*k) // point i is node count i/k, curve i%k
	for i := range order {
		order[i] = i
	}
	scale := func(i int) int { return curves[i%k].perNodeLog + bits.Len(uint(s.nodes[i/k])) }
	slices.SortStableFunc(order, func(a, b int) int { return scale(a) - scale(b) })
	ms, errs := make([]*measurement, len(order)), make([]error, len(order))
	for _, i := range order {
		c := curves[i%k]
		ms[i], errs[i] = measureBFS(o, s.nodes[i/k], c.perNodeLog, c.transport, c.engine)
	}

	last := make([]*measurement, k)
	for r, nodes := range s.nodes {
		row := []string{fmt.Sprint(nodes)}
		for i := r * k; i < (r+1)*k; i++ {
			if errs[i] != nil {
				row = append(row, crashCell(errs[i]))
				continue
			}
			last[i%k] = ms[i]
			row = append(row, fmt.Sprintf("%.3f", ms[i].gteps))
		}
		t.AddRow(append(row, "measured")...)
	}
	for _, nodes := range s.projected {
		row := []string{fmt.Sprint(nodes)}
		for _, m := range last {
			if m == nil {
				row = append(row, "n/a")
				continue
			}
			gteps, err := project(m, nodes)
			if err != nil {
				row = append(row, crashCell(err))
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", gteps))
		}
		t.AddRow(append(row, "modelled")...)
	}
}

// fig11 reproduces the performance comparison of techniques: GTEPS per
// node count for Direct/Relay x MPE/CPE at 2^perNodeLogs[0] vertices per
// node (the paper ran 16M ≈ 2^24; the scaled-down 2^13 keeps functional
// runs laptop-sized while staying bandwidth-bound rather than
// latency-bound, which is the regime Figure 11 measures). Expected shape,
// per the paper: CPE rows ~10x their MPE counterparts; Direct CPE crashes
// past 256 nodes (SPM); Direct MPE flattens with scale and crashes at
// 16,384 nodes (MPI memory); Relay CPE scales to the whole machine.
func fig11(o Options, s shape) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "Performance comparison of techniques (Figure 11)",
		Header: []string{"nodes", "Direct MPE", "Direct CPE", "Relay MPE", "Relay CPE", "source"},
	}
	l := s.perNodeLogs[0]
	grid(t, o, s, []curve{
		{core.TransportDirect, perf.EngineMPE, l},
		{core.TransportDirect, perf.EngineCPE, l},
		{core.TransportRelay, perf.EngineMPE, l},
		{core.TransportRelay, perf.EngineCPE, l},
	})
	t.AddNote("GTEPS; 2^%d vertices per node (paper: 16M per node)", l)
	t.AddNote("paper shape: CPE ~10x MPE; Direct CPE crashes >256 nodes (SPM); Direct MPE caps at 4096 and crashes at 16384 (MPI memory); Relay CPE scales to the full machine")
	return t, nil
}

// fig12 reproduces the weak-scaling study: GTEPS versus node count for
// one curve per per-node problem size, on the production configuration
// (Relay + CPE). The default sizes 2^9, 2^11 and 2^13 keep the 1:4:16
// ratios of the paper's 1.6M / 6.5M / 26.2M vertices per node. The
// paper's shape: near-linear scaling, with the curves separating as the
// node count grows — at full scale each 4x-larger per-node size is worth
// ~4x the GTEPS because small sizes are latency dominated.
func fig12(o Options, s shape) (*Table, error) {
	header := []string{"nodes"}
	var curves []curve
	for _, l := range s.perNodeLogs {
		header = append(header, fmt.Sprintf("%d vtx/node", int64(1)<<uint(l)))
		curves = append(curves, curve{core.TransportRelay, perf.EngineCPE, l})
	}
	t := &Table{
		ID:     "fig12",
		Title:  "Weak scaling of BFS, Relay CPE (Figure 12)",
		Header: append(header, "source"),
	}
	grid(t, o, s, curves)
	t.AddNote("GTEPS; per-node sizes keep the paper's 1:4:16 ratios (1.6M/6.5M/26.2M vertices per node, scaled down)")
	t.AddNote("paper shape: near-linear weak scaling; at 40,768 nodes each 4x-larger size is worth ~4x GTEPS")
	return t, nil
}
