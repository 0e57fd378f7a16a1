package experiments

import (
	"fmt"

	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/perf"
)

// ablations measures each design choice DESIGN.md calls out, toggled on
// the production configuration of s.nodes[0] nodes at scale s.scale:
// direction optimization, hub prefetch, the small-message MPE fast path,
// message compression (the Section 7 extension) and the partition
// strategy.
func ablations(o Options, s shape) (*Table, error) {
	nodes := s.nodes[0]
	variant := func(change func(*core.Config)) core.Config {
		cfg := o.machine(nodes)
		change(&cfg)
		return cfg
	}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"production (all on)", o.machine(nodes)},
		{"no direction optimization", variant(func(c *core.Config) { c.DirectionOptimized = false })},
		{"no hub prefetch", variant(func(c *core.Config) { c.HubPrefetch = false })},
		{"no small-message MPE path", variant(func(c *core.Config) { c.SmallMessageMPE = false })},
		{"adaptive compression", variant(func(c *core.Config) { c.Codec = comm.AdaptiveCodec{} })},
		{"block partition", variant(func(c *core.Config) { c.Partition = core.PartitionBlock })},
		{"degree-balanced partition", variant(func(c *core.Config) { c.Partition = core.PartitionDegreeBalanced })},
		{"direct transport", variant(func(c *core.Config) { c.Transport = core.TransportDirect })},
		{"MPE engine", variant(func(c *core.Config) { c.Engine = perf.EngineMPE })},
	}

	t := &Table{
		ID:     "ablations",
		Title:  "Design-choice ablations on the production configuration",
		Header: []string{"variant", "GTEPS", "net MB", "vs production"},
	}
	var baseline float64
	for i, v := range variants {
		r, err := o.bench(v.cfg, s.scale)
		if err != nil {
			t.AddRow(v.name, "CRASH", "-", "-")
			continue
		}
		gteps := r.GTEPSHarmonicMean()
		if i == 0 {
			baseline = gteps
		}
		rel := "1.00x"
		if i > 0 && baseline > 0 {
			rel = fmt.Sprintf("%.2fx", gteps/baseline)
		}
		var netBytes int64
		for _, run := range r.Runs {
			for _, l := range run.LevelDetail {
				for _, b := range l.Net.Bytes {
					netBytes += b
				}
			}
		}
		t.AddRow(v.name, fmt.Sprintf("%.3f", gteps),
			fmt.Sprintf("%.1f", float64(netBytes)/(1<<20)), rel)
	}
	t.AddNote("%d nodes, scale-%d Kronecker, %d roots per variant", nodes, s.scale, o.Roots)
	return t, nil
}
