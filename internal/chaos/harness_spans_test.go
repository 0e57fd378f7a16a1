package chaos_test

import (
	"errors"
	"reflect"
	"testing"

	"swbfs/internal/algos"
	"swbfs/internal/chaos"
	"swbfs/internal/core"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

// TestResumeKeepsModuleSpans: a BFS and a WCC run killed mid-run, then
// resumed from the abort's checkpoint with span recording on, record
// module spans DeepEqual to an uninterrupted run's, on both transports,
// whether or not the killed run recorded spans. The machine keeps its
// module-work ledger on every run and it rides in the checkpoint, so the
// levels before the boundary keep their spans.
func TestResumeKeepsModuleSpans(t *testing.T) {
	wg := resumeGraph(t)
	root := testutil.FirstConnected(t, wg.CSR)
	withSpans := func(cfg core.Config) core.Config {
		cfg.Obs = obs.New()
		cfg.Obs.Spans = obs.NewSpanRecorder()
		return cfg
	}
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		for _, name := range []string{"bfs", "wcc"} {
			k, err := algos.KernelByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, killSpans := range []bool{true, false} {
				sub := name + "/" + transport.String()
				if !killSpans {
					sub += "/killed-without-spans"
				}
				t.Run(sub, func(t *testing.T) {
					bcfg := withSpans(harnessConfig(transport))
					bcfg.Obs.Flight = obs.NewFlightRecorder(1 << 16)
					if _, err := k.Run(bcfg, wg, root, "", nil); err != nil {
						t.Fatalf("baseline: %v", err)
					}
					want := bcfg.Obs.Spans.Runs()[0].Spans
					kills := killSpecsFromDump(t, bcfg.Obs.Flight.Dump())
					level := len(kills) / 2
					f, ok := kills[level]
					if !ok || level == 0 {
						t.Fatalf("no delivery to kill at mid-run level %d of %d", level, len(kills))
					}

					kcfg := harnessConfig(transport)
					if killSpans {
						kcfg = withSpans(kcfg)
					}
					kcfg.Chaos = &chaos.Plan{Faults: []chaos.Fault{f}}
					kcfg.CheckpointEvery = 1
					_, err := k.Run(kcfg, wg, root, "", nil)
					var ae *core.AbortError
					if !errors.As(err, &ae) || ae.Checkpoint == nil {
						t.Fatalf("kill %s: want an abort with a checkpoint, got %v", f, err)
					}
					c := ae.Checkpoint
					if c.Level != level || len(c.Machine.Work) != level {
						t.Fatalf("kill %s: checkpoint at level %d carries %d work rows, want %d of each",
							f, c.Level, len(c.Machine.Work), level)
					}

					rcfg, err := core.ConfigFromCheckpoint(c.Config)
					if err != nil {
						t.Fatal(err)
					}
					rcfg = withSpans(rcfg)
					rcfg.Workers = kcfg.Workers // spans attribute the resumed run's width
					if _, err := k.Run(rcfg, wg, root, c.Args, c); err != nil {
						t.Fatalf("resume: %v", err)
					}
					got := rcfg.Obs.Spans.Runs()[0].Spans
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("resumed run's %d module spans differ from the uninterrupted run's %d", len(got), len(want))
					}
				})
			}
		}
	}
}
