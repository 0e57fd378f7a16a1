package algos

import (
	"fmt"
	"testing"

	"swbfs/internal/core"
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

// TestModuleSpansMatchGolden pins the module spans, relay flow links and run
// totals a RunTrace records of whole WCC runs on the relay transport at two
// worker widths — per-round generator and handler spans — against a
// committed file. The round driver's module work lives on the machine's
// ledger; moving it must not move the spans.
func TestModuleSpansMatchGolden(t *testing.T) {
	g := kron(t, 9, 23)
	got := map[string][]spanRun{}
	for _, workers := range []int{1, 2} {
		cfg := machine(4, core.TransportRelay)
		cfg.SuperNodeSize = 2
		cfg.Workers = workers
		cfg.Obs = obs.New()
		if _, err := WCC(cfg, g); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var runs []spanRun
		var offset float64
		for _, rt := range cfg.Obs.Trace.Runs() {
			runs = append(runs, spanRun{rt.Root, offset, rt.TotalSeconds, rt.Spans, rt.Flows, rt.Stragglers})
			offset += rt.TotalSeconds
		}
		got[fmt.Sprintf("wcc/relay/workers=%d", workers)] = runs
	}
	testutil.Golden(t, spanGolden, *updateGolden, got)
}
