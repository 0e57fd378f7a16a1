package experiments

import (
	"fmt"

	"swbfs/internal/core"
)

// policyAlphas and policyBetas are the threshold grid of the policy sweep:
// they bracket the Beamer values the paper's TRAVERSAL_POLICY uses.
var policyAlphas, policyBetas = []float64{2, 14, 100}, []float64{4, 24, 100}

// policySweep measures the hybrid policy's sensitivity to its alpha/beta
// thresholds on s.nodes[0] nodes at scale s.scale: GTEPS and bottom-up
// level counts across the grid, with the top-down-only baseline for
// reference. The broad flatness around the defaults (and the gap to the
// baseline) is what makes the heuristic practical.
func policySweep(o Options, s shape) (*Table, error) {
	g, err := o.graph(s.scale)
	if err != nil {
		return nil, err
	}
	nodes := s.nodes[0]
	t := &Table{
		ID:     "policy",
		Title:  "Direction policy sensitivity (TRAVERSAL_POLICY thresholds)",
		Header: []string{"alpha", "beta", "GTEPS", "bottom-up levels", "levels"},
	}
	row := func(alpha, beta string, cfg core.Config) error {
		r, err := o.bench(cfg, s.scale, g)
		if err != nil {
			return err
		}
		var bottomUp, levels int
		for _, run := range r.Runs {
			bottomUp += run.BottomUpLevels
			levels += run.Levels
		}
		t.AddRow(alpha, beta, fmt.Sprintf("%.3f", r.GTEPSHarmonicMean()), fmt.Sprint(bottomUp), fmt.Sprint(levels))
		return nil
	}
	for _, alpha := range policyAlphas {
		for _, beta := range policyBetas {
			cfg := o.machine(nodes)
			cfg.Alpha, cfg.Beta = alpha, beta
			if err := row(fmt.Sprintf("%.0f", alpha), fmt.Sprintf("%.0f", beta), cfg); err != nil {
				return nil, err
			}
		}
	}
	// Top-down baseline.
	cfg := o.machine(nodes)
	cfg.DirectionOptimized = false
	if err := row("-", "-", cfg); err != nil {
		return nil, err
	}
	t.AddNote("last row: direction optimization disabled (top-down only)")
	t.AddNote("%d nodes, scale-%d Kronecker, %d roots per cell", nodes, s.scale, o.Roots)
	return t, nil
}
