package experiments

import (
	"fmt"

	"swbfs/internal/core"
)

// PolicySweepOptions scales the direction-policy sensitivity study.
type PolicySweepOptions struct {
	Nodes, Scale int
	Roots        int
	Seed         int64
	// Alphas and Betas are the threshold grids (defaults bracket the
	// Beamer values the paper's TRAVERSAL_POLICY uses).
	Alphas, Betas []float64
	// Host carries the driver's host-side knobs onto every run.
	Host core.Host
}

func (o PolicySweepOptions) withDefaults() PolicySweepOptions {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.Scale == 0 {
		o.Scale = 14
	}
	if o.Roots == 0 {
		o.Roots = 2
	}
	if o.Seed == 0 {
		o.Seed = 20160624
	}
	if o.Alphas == nil {
		o.Alphas = []float64{2, 14, 100}
	}
	if o.Betas == nil {
		o.Betas = []float64{4, 24, 100}
	}
	return o
}

// PolicySweep measures the hybrid policy's sensitivity to its alpha/beta
// thresholds: GTEPS and bottom-up level counts across the grid, with the
// top-down-only baseline for reference. The broad flatness around the
// defaults (and the gap to the baseline) is what makes the heuristic
// practical.
func PolicySweep(opts PolicySweepOptions) (*Table, error) {
	opts = opts.withDefaults()
	sweep, err := newRootSweep(opts.Scale, opts.Roots, opts.Seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "policy",
		Title:  "Direction policy sensitivity (TRAVERSAL_POLICY thresholds)",
		Header: []string{"alpha", "beta", "GTEPS", "bottom-up levels", "levels"},
	}

	for _, alpha := range opts.Alphas {
		for _, beta := range opts.Betas {
			cfg := opts.Host.Apply(core.DefaultConfig(opts.Nodes))
			cfg.SuperNodeSize = scaledSuperNodeSize
			cfg.Alpha, cfg.Beta = alpha, beta
			r, err := sweep.run(cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%.0f", alpha), fmt.Sprintf("%.0f", beta),
				fmt.Sprintf("%.3f", r.GTEPS), fmt.Sprint(r.BottomUpLevels), fmt.Sprint(r.Levels))
		}
	}
	// Top-down baseline.
	cfg := opts.Host.Apply(core.DefaultConfig(opts.Nodes))
	cfg.SuperNodeSize = scaledSuperNodeSize
	cfg.DirectionOptimized = false
	r, err := sweep.run(cfg)
	if err != nil {
		return nil, err
	}
	t.AddRow("-", "-", fmt.Sprintf("%.3f", r.GTEPS), fmt.Sprint(r.BottomUpLevels), fmt.Sprint(r.Levels))
	t.AddNote("last row: direction optimization disabled (top-down only)")
	t.AddNote("%d nodes, scale-%d Kronecker, %d roots per cell", opts.Nodes, opts.Scale, opts.Roots)
	return t, nil
}
