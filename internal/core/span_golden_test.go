package core

import (
	"testing"

	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

const spanGolden = "testdata/span_golden.json"

// TestModuleSpansMatchGolden pins what a span recorder collects from whole
// BFS runs — every node's per-level module spans on the modelled timeline,
// the relay flow links and the run totals — against a committed file: relay
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
	got := map[string][]obs.RunSpans{}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Obs = obs.New()
		cfg.Obs.Spans = obs.NewSpanRecorder()
		r, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(root); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[tc.name] = cfg.Obs.Spans.Runs()
	}
	testutil.Golden(t, spanGolden, *updateGolden, got)
}
