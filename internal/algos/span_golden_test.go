package algos

import (
	"fmt"
	"testing"

	"swbfs/internal/core"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

const spanGolden = "testdata/span_golden.json"

// TestModuleSpansMatchGolden pins what a span recorder collects from whole
// WCC runs on the relay transport at two worker widths — per-round
// generator and handler spans, relay flow links, run totals — against a
// committed file. The round driver's module work lives on the machine's
// ledger; moving it must not move the spans.
func TestModuleSpansMatchGolden(t *testing.T) {
	g := kron(t, 9, 23)
	got := map[string][]obs.RunSpans{}
	for _, workers := range []int{1, 2} {
		cfg := machine(4, core.TransportRelay)
		cfg.SuperNodeSize = 2
		cfg.Workers = workers
		cfg.Obs = obs.New()
		cfg.Obs.Spans = obs.NewSpanRecorder()
		if _, err := WCC(cfg, g); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got[fmt.Sprintf("wcc/relay/workers=%d", workers)] = cfg.Obs.Spans.Runs()
	}
	testutil.Golden(t, spanGolden, *updateGolden, got)
}
