package core

import (
	"testing"

	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

const spanGolden = "testdata/span_golden.json"

// spanRun is the golden's shape of one recorded run: where it starts on the
// timeline of its observer's runs, its modelled time, its module spans,
// relay flow links and straggler flags.
type spanRun struct {
	Root       int64               `json:"root"`
	Offset     float64             `json:"offset_seconds"`
	Total      float64             `json:"total_seconds"`
	Spans      []obs.ModuleSpan    `json:"spans"`
	Flows      []obs.FlowLink      `json:"flows"`
	Stragglers []obs.StragglerFlag `json:"stragglers,omitempty"`
}

// spanRuns puts recorded runs in the golden's shape.
func spanRuns(runs []obs.RunTrace) []spanRun {
	out := make([]spanRun, len(runs))
	var offset float64
	for i, rt := range runs {
		out[i] = spanRun{rt.Root, offset, rt.TotalSeconds, rt.Spans, rt.Flows, rt.Stragglers}
		if rt.Flows == nil {
			out[i].Flows = []obs.FlowLink{}
		}
		offset += rt.TotalSeconds
	}
	return out
}

// TestModuleSpansMatchGolden pins the module spans, relay flow links and
// run totals a RunTrace records of whole BFS runs — every node's per-level
// module spans on the modelled timeline — against a committed file: relay
// hybrid at two worker widths and direct top-down. Spans are built from the
// per-node module work the machine keeps; where that work is recorded,
// carried across a checkpoint or laid out must not move them.
func TestModuleSpansMatchGolden(t *testing.T) {
	g := kron(t, 9, 42)
	const root = graph.Vertex(5)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"relay/hybrid/workers=1", ckptConfig(TransportRelay, 1)},
		{"relay/hybrid/workers=2", ckptConfig(TransportRelay, 2)},
		{"direct/topdown", ckptConfig(TransportDirect, 1)},
	}
	cases[2].cfg.DirectionOptimized = false
	got := map[string][]spanRun{}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Obs = obs.New()
		r, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(root); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[tc.name] = spanRuns(cfg.Obs.Trace.Runs())
	}
	testutil.Golden(t, spanGolden, *updateGolden, got)
}
