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
// resumed from the abort's checkpoint, record module spans DeepEqual to an
// uninterrupted run's, on both transports, and relay flows equal to its
// flows from the checkpoint's level on. The machine keeps its module-work
// ledger on every run and it rides in the checkpoint, so the levels before
// the boundary keep their spans; flows are collected per level by the
// machine that ran it, so those levels' flows are not carried across.
func TestResumeKeepsModuleSpans(t *testing.T) {
	wg := resumeGraph(t)
	root := testutil.FirstConnected(t, wg.CSR)
	observed := func(cfg core.Config) core.Config {
		cfg.Obs = obs.New()
		return cfg
	}
	from := func(flows []obs.FlowLink, level int) []obs.FlowLink {
		var out []obs.FlowLink
		for _, f := range flows {
			if f.Level >= level {
				out = append(out, f)
			}
		}
		return out
	}
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		for _, name := range []string{"bfs", "wcc"} {
			k, err := algos.KernelByName(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(name+"/"+transport.String(), func(t *testing.T) {
				bcfg := observed(harnessConfig(transport))
				bcfg.Obs.Flight = obs.NewFlightRecorder(1 << 16)
				if _, err := k.Run(bcfg, wg, root, "", nil); err != nil {
					t.Fatalf("baseline: %v", err)
				}
				want := bcfg.Obs.Trace.Runs()[0]
				kills := killSpecsFromDump(t, bcfg.Obs.Flight.Dump())
				level := len(kills) / 2
				f, ok := kills[level]
				if !ok || level == 0 {
					t.Fatalf("no delivery to kill at mid-run level %d of %d", level, len(kills))
				}

				kcfg := observed(harnessConfig(transport))
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
				rcfg = observed(rcfg)
				rcfg.Workers = kcfg.Workers // spans attribute the resumed run's width
				if _, err := k.Run(rcfg, wg, root, c.Args, c); err != nil {
					t.Fatalf("resume: %v", err)
				}
				got := rcfg.Obs.Trace.Runs()[0]
				if !reflect.DeepEqual(got.Spans, want.Spans) {
					t.Fatalf("resumed run's %d module spans differ from the uninterrupted run's %d", len(got.Spans), len(want.Spans))
				}
				if transport == core.TransportRelay && len(got.Flows) == 0 {
					t.Fatal("resumed relay run recorded no flows")
				}
				if wantFlows := from(want.Flows, level); !reflect.DeepEqual(got.Flows, wantFlows) {
					t.Fatalf("resumed run's %d flows differ from the uninterrupted run's %d from level %d on",
						len(got.Flows), len(wantFlows), level)
				}
				if err := got.Reconcile(); err != nil {
					t.Fatalf("resumed run's trace does not reconcile: %v", err)
				}
			})
		}
	}
}
