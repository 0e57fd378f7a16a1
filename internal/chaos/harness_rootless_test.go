// Chaos coverage for the rootless kernels (WCC, PageRank): their label
// and rank folds must be idempotent under duplicated deliveries and
// invisible retries — a completed faulted run is bit-identical to the
// fault-free one — and a killed run tears down into a clean AbortError
// with a parseable flight-recorder post-mortem. `make chaos` sweeps these
// with the BFS harness.
package chaos_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"swbfs/internal/algos"
	"swbfs/internal/chaos"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/flight"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

// rootlessPlans maps each transport to a transient plan striking round 0
// of a rootless kernel: a retried send failure, a dropped wire batch and
// a duplicated delivery. Every node is active in round 0 (WCC labels and
// PageRank pushes flow from all vertices), so all three faults fire.
var rootlessPlans = map[core.Transport]string{
	core.TransportDirect: "sendfail@1:l0:data/forward:0,drop@3:l0:data/forward:0,dup@2:l0:data/forward:0",
	core.TransportRelay:  "sendfail@1:l0:relay-data/forward:0,drop@3:l0:relay-data/forward:0,dup@2:l0:relay-data/forward:0",
}

func TestChaosRootlessWCC(t *testing.T) {
	g := harnessGraph(t)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := harnessConfig(transport)
			base, err := algos.WCC(cfg, g)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			plan, err := chaos.ParsePlan(rootlessPlans[transport])
			if err != nil {
				t.Fatal(err)
			}
			ccfg := cfg
			ccfg.Chaos = &plan

			leak := testutil.CheckGoroutines(t)
			res, err := algos.WCC(ccfg, g)
			leak()
			if err != nil {
				t.Fatalf("faulted run aborted: %v", err)
			}
			if len(res.Info.Injections) == 0 {
				t.Fatal("no fault fired: the plan never exercised the kernel")
			}
			if !reflect.DeepEqual(res.Label, base.Label) {
				t.Fatal("label fold is not idempotent: faulted labels differ from fault-free run")
			}
			if res.Components != base.Components {
				t.Fatalf("component count drifted: %d vs %d", res.Components, base.Components)
			}
		})
	}
}

func TestChaosRootlessPageRank(t *testing.T) {
	g := harnessGraph(t)
	const iterations = 8
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := harnessConfig(transport)
			base, err := algos.PageRank(cfg, g, iterations, 0)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			plan, err := chaos.ParsePlan(rootlessPlans[transport])
			if err != nil {
				t.Fatal(err)
			}
			ccfg := cfg
			ccfg.Chaos = &plan

			leak := testutil.CheckGoroutines(t)
			res, err := algos.PageRank(ccfg, g, iterations, 0)
			leak()
			if err != nil {
				t.Fatalf("faulted run aborted: %v", err)
			}
			if len(res.Info.Injections) == 0 {
				t.Fatal("no fault fired: the plan never exercised the kernel")
			}
			// The accumulator folds sender-quantized fixed-point integers, so
			// the sum is independent of batch arrival order — a completed
			// faulted run must reproduce the fault-free ranks bitwise, no
			// tolerance.
			if !reflect.DeepEqual(res.Rank, base.Rank) {
				t.Fatal("rank fold is not idempotent: faulted ranks differ bitwise from fault-free run")
			}
		})
	}
}

// TestChaosRootlessKillDump: a killed rootless run aborts cleanly and its
// AbortError carries a flight dump the renderer parses, with the kill
// visible as an injected event.
func TestChaosRootlessKillDump(t *testing.T) {
	g := harnessGraph(t)
	plan, err := chaos.ParsePlan("kill@1:l0:data/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harnessConfig(core.TransportDirect)
	cfg.Chaos = &plan

	leak := testutil.CheckGoroutines(t)
	res, err := algos.WCC(cfg, g)
	leak()
	if res != nil || err == nil {
		t.Fatalf("killed run returned (%v, %v)", res, err)
	}
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an AbortError: %v", err)
	}
	if ae.FlightDump == nil || !ae.FlightDump.Aborted {
		t.Fatal("AbortError carries no stamped flight dump")
	}
	var rendered strings.Builder
	if err := flight.Render(&rendered, ae.FlightDump); err != nil {
		t.Fatal(err)
	}
	out := rendered.String()
	if !strings.Contains(out, "kill@") || !strings.Contains(out, "[injected]") {
		t.Fatalf("rendered post-mortem does not show the injected kill:\n%s", out)
	}
}

// TestChaosRootlessKillThenFreshRun: a WCC run killed in the middle of a
// round is followed, in the same process, by a fault-free run whose labels
// and RunInfo are bitwise those of a clean run: no combiner state leaks
// from the dead run into the next. The graph is scale 14 so that every
// node folds more than one staged chunk (comm.StageCapPairs) of distinct
// vertices in round 1: the kill at node 1's first delivery then fails
// sends while the combiners still hold pairs they have not shipped.
func TestChaosRootlessKillThenFreshRun(t *testing.T) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 14, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	kills := map[core.Transport]string{
		core.TransportDirect: "kill@1:l1:data/forward:0",
		core.TransportRelay:  "kill@1:l1:relay-data/forward:0",
	}
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := harnessConfig(transport)
			cfg.Workers = 3
			clean, err := algos.WCC(cfg, g)
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			plan, err := chaos.ParsePlan(kills[transport])
			if err != nil {
				t.Fatal(err)
			}
			killed := cfg
			killed.Chaos = &plan
			var ae *core.AbortError
			if _, err := algos.WCC(killed, g); !errors.As(err, &ae) || len(ae.CompletedLevels) != 1 {
				t.Fatalf("killed run: %v, want an abort in round 1", err)
			}
			fresh, err := algos.WCC(cfg, g)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			if !reflect.DeepEqual(fresh.Label, clean.Label) || !reflect.DeepEqual(fresh.Info, clean.Info) {
				t.Fatal("the run after a killed one differs from a clean run")
			}
		})
	}
}

// TestChaosSendFailAbortDoesNotFlush pins the staged send path's failure
// contract. Round 0 of WCC first absorbs a transient send failure, then a
// kill strikes the very next batch of the same stream — mid-flush, with
// most of the round still staged. The driver must abort without pushing
// the rest of the stage through the dead node: the error is a clean
// AbortError caused by the kill, the flight dump reconciles 1:1 with the
// injection log, and the dump shows exactly one doomed delivery attempt.
func TestChaosSendFailAbortDoesNotFlush(t *testing.T) {
	g := harnessGraph(t)
	specs := map[core.Transport]string{
		core.TransportDirect: "sendfail@1:l0:data/forward:0,kill@1:l0:data/forward:1",
		core.TransportRelay:  "sendfail@1:l0:relay-data/forward:0,kill@1:l0:relay-data/forward:1",
	}
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			plan, err := chaos.ParsePlan(specs[transport])
			if err != nil {
				t.Fatal(err)
			}
			cfg := harnessConfig(transport)
			cfg.Chaos = &plan

			leak := testutil.CheckGoroutines(t)
			res, err := algos.WCC(cfg, g)
			leak()
			if res != nil || err == nil {
				t.Fatalf("killed run returned (%v, %v)", res, err)
			}
			var ae *core.AbortError
			if !errors.As(err, &ae) {
				t.Fatalf("error is not an AbortError: %v", err)
			}
			var killed *comm.ErrNodeKilled
			if !errors.As(err, &killed) || killed.Node != 1 {
				t.Fatalf("abort cause is not node 1's kill: %v", err)
			}
			if !reflect.DeepEqual(ae.Injections, plan.Faults) {
				t.Fatalf("injection log %v, want both planned faults %v", ae.Injections, plan.Faults)
			}
			if ae.FlightDump == nil || !ae.FlightDump.Aborted {
				t.Fatal("AbortError carries no stamped flight dump")
			}
			if err := flight.Reconcile(ae.FlightDump, ae.Injections); err != nil {
				t.Fatal(err)
			}
			doomed := 0
			for _, ev := range ae.FlightDump.Events {
				if ev.Kind == obs.FlightSend && ev.Node == 1 && strings.HasPrefix(ev.Fault, "kill@") {
					doomed++
				}
			}
			if doomed != 1 {
				t.Fatalf("dump shows %d killed delivery attempts by node 1, want exactly the one that aborted the run", doomed)
			}
		})
	}
}
