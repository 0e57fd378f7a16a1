package chaos_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"swbfs/internal/chaos"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

// moduleCounters returns the core.module.* counters an observer's registry
// holds.
func moduleCounters(o *obs.Observer) map[string]int64 {
	out := map[string]int64{}
	for name, v := range o.Metrics.Snapshot().Counters {
		if strings.HasPrefix(name, "core.module.") {
			out[name] = v
		}
	}
	return out
}

// TestModuleCountersMatchSpans pins the whole-run module counters of a BFS
// hybrid run (hub prefetch, small-message MPE) on a scale-12, 16-node
// machine, on both transports, three ways: the generator and relay byte
// counters hold their committed values, each core.module.*.bytes counter
// equals the bytes of its module class's spans in the same run, and a run
// killed mid-way and resumed from the abort's checkpoint folds the same
// counters, invocations and MPE small batches included, as the
// uninterrupted run.
func TestModuleCountersMatchSpans(t *testing.T) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 12, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	root := testutil.FirstConnected(t, g)
	classes := map[string][]string{
		"core.module.generator.bytes":        {obs.ModuleForwardGenerator, obs.ModuleBackwardGenerator},
		"core.module.handler.forward.bytes":  {obs.ModuleForwardHandler},
		"core.module.handler.backward.bytes": {obs.ModuleBackwardHandler},
		"core.module.relay.bytes":            {obs.ModuleRelay},
	}
	// Generator bytes count scanned edges; relay bytes count the pairs
	// relayed, which top-down levels fold per batch and destination vertex.
	pinned := map[core.Transport][2]int64{ // generator, relay
		core.TransportDirect: {58480 + 42224, 0},
		core.TransportRelay:  {58480 + 42224, 82544},
	}
	config := func(transport core.Transport) core.Config {
		cfg := harnessConfig(transport)
		cfg.Nodes = 16
		return cfg
	}
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			bcfg := config(transport)
			bcfg.Obs = obs.New()
			bcfg.Obs.Flight = obs.NewFlightRecorder(1 << 17)
			r, err := core.NewRunner(bcfg, g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(root); err != nil {
				t.Fatalf("baseline: %v", err)
			}
			want := moduleCounters(bcfg.Obs)
			spanBytes := map[string]int64{}
			for _, sp := range bcfg.Obs.Trace.Runs()[0].Spans {
				spanBytes[sp.Module] += sp.Bytes
			}
			for name, modules := range classes {
				var sum int64
				for _, m := range modules {
					sum += spanBytes[m]
				}
				if got, ok := want[name]; !ok || got != sum {
					t.Errorf("%s = %d (emitted %t), its spans hold %d bytes", name, got, ok, sum)
				}
			}
			if p := pinned[transport]; want["core.module.generator.bytes"] != p[0] || want["core.module.relay.bytes"] != p[1] {
				t.Errorf("generator and relay bytes %d and %d, want %d and %d",
					want["core.module.generator.bytes"], want["core.module.relay.bytes"], p[0], p[1])
			}

			kills := killSpecsFromDump(t, bcfg.Obs.Flight.Dump())
			level := len(kills) / 2
			f, ok := kills[level]
			if !ok || level == 0 {
				t.Fatalf("no delivery to kill at mid-run level %d of %d", level, len(kills))
			}
			kcfg := config(transport)
			kcfg.Chaos = &chaos.Plan{Faults: []chaos.Fault{f}}
			kcfg.CheckpointEvery = 1
			kr, err := core.NewRunner(kcfg, g)
			if err != nil {
				t.Fatal(err)
			}
			_, err = kr.Run(root)
			var ae *core.AbortError
			if !errors.As(err, &ae) || ae.Checkpoint == nil {
				t.Fatalf("kill %s: want an abort with a checkpoint, got %v", f, err)
			}
			rcfg, err := core.ConfigFromCheckpoint(ae.Checkpoint.Config)
			if err != nil {
				t.Fatal(err)
			}
			rcfg.Obs = obs.New()
			rr, err := core.NewRunner(rcfg, g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rr.Resume(ae.Checkpoint); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := moduleCounters(rcfg.Obs); !reflect.DeepEqual(got, want) {
				t.Fatalf("kill %s: resumed run's module counters\n  %v\nuninterrupted run's\n  %v", f, got, want)
			}
		})
	}
}
