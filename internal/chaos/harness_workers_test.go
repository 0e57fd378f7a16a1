// Chaos x worker-width parity for the rootless kernels: the worker
// fan-out inside WCC, PageRank, K-core and betweenness must be invisible
// at every width — fault-free runs at widths 2/3/8 reproduce the
// Workers=1 results and modelled traffic bitwise, seeded chaos plans
// that complete reproduce them too, and plans that abort tear down into
// clean AbortErrors whose flight dumps reconcile against the injection
// log. `make race -run Workers` and `make chaos -run TestChaos` both
// sweep this file.
package chaos_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"swbfs/internal/algos"
	"swbfs/internal/chaos"
	"swbfs/internal/core"
	"swbfs/internal/flight"
	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

// kernelOutcome is a kernel result reduced to its comparable payload: the
// merged answer plus the modelled network totals, with host-time and
// injection bookkeeping stripped so DeepEqual means "same modelled run".
type kernelOutcome struct {
	Payload  any
	NetBytes int64
	NetMsgs  int64
}

// parityArgs names the kernels of the table this sweep runs, with their
// arguments: the rootless ones, since the guaranteed abort below needs
// every node active in round 0. Betweenness sums three sources so both the
// forward and the backward sweep cross node boundaries.
var parityArgs = map[string]string{
	"wcc":         "",
	"pagerank":    "iterations=8 damping=0.85",
	"kcore":       "k=4",
	"betweenness": "sources=[1 33 200]",
}

// outcome reduces a kernel's table result to a kernelOutcome: the result
// with its RunInfo split off, and that RunInfo's modelled network totals.
func outcome(res any) *kernelOutcome {
	payload := reflect.New(reflect.TypeOf(res).Elem()).Elem()
	payload.Set(reflect.ValueOf(res).Elem())
	info := payload.FieldByName("Info").Interface().(*algos.RunInfo)
	payload.FieldByName("Info").SetZero()
	return &kernelOutcome{Payload: payload.Interface(), NetBytes: info.NetworkBytes, NetMsgs: info.NetworkMessages}
}

// TestChaosWorkersParityKernels sweeps every rootless kernel across
// worker widths and seeded fault plans on both transports. The contract,
// per kernel:
//
//   - fault-free runs at widths 2, 3 and 8 are bit-identical to the
//     Workers=1 run — results (floats with no tolerance) AND modelled
//     network bytes/messages;
//   - a seeded chaos plan that completes reproduces the Workers=1
//     fault-free outcome bitwise;
//   - a plan that aborts yields a clean *core.AbortError whose flight
//     dump reconciles 1:1 against the AbortError's injection log and
//     renders with the abort marked.
func TestChaosWorkersParityKernels(t *testing.T) {
	wg := &graph.WeightedCSR{CSR: harnessGraph(t)}
	const chaosSeeds = 6
	const chaosWidth = 3 // odd width: shards never align with batch sizes
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			completed, aborted := 0, 0
			for _, k := range algos.Kernels {
				args, ok := parityArgs[k.Name]
				if !ok {
					continue
				}
				run := func(cfg core.Config) (*kernelOutcome, error) {
					res, err := k.Run(cfg, wg, graph.NoVertex, args, nil)
					if err != nil {
						return nil, err
					}
					return outcome(res), nil
				}
				t.Run(k.Name, func(t *testing.T) {
					cfg := harnessConfig(transport)
					cfg.Workers = 1
					base, err := run(cfg)
					if err != nil {
						t.Fatalf("baseline: %v", err)
					}

					for _, w := range []int{2, 3, 8} {
						wcfg := harnessConfig(transport)
						wcfg.Workers = w
						got, err := run(wcfg)
						if err != nil {
							t.Fatalf("workers=%d: %v", w, err)
						}
						if !reflect.DeepEqual(got.Payload, base.Payload) {
							t.Fatalf("workers=%d: result differs from Workers=1", w)
						}
						if got.NetBytes != base.NetBytes || got.NetMsgs != base.NetMsgs {
							t.Fatalf("workers=%d: modelled traffic drifted: %d B / %d msgs vs %d B / %d msgs",
								w, got.NetBytes, got.NetMsgs, base.NetBytes, base.NetMsgs)
						}
					}

					// A guaranteed abort: kill node 1 at its first round-0
					// forward delivery. Every kernel has all nodes active in
					// round 0, so the kill always fires at any width.
					killSpec := "kill@1:l0:data/forward:0"
					if transport == core.TransportRelay {
						killSpec = "kill@1:l0:relay-data/forward:0"
					}
					killPlan, err := chaos.ParsePlan(killSpec)
					if err != nil {
						t.Fatal(err)
					}
					kcfg := harnessConfig(transport)
					kcfg.Workers = chaosWidth
					kcfg.Chaos = &killPlan
					leak := testutil.CheckGoroutines(t)
					_, killErr := run(kcfg)
					leak()
					if t.Failed() {
						t.Fatal("killed run leaked goroutines")
					}
					if killErr == nil {
						t.Fatal("killed run completed")
					}
					var kae *core.AbortError
					if !errors.As(killErr, &kae) {
						t.Fatalf("kill abort is not an AbortError: %v", killErr)
					}
					if kae.FlightDump == nil || !kae.FlightDump.Aborted {
						t.Fatal("kill AbortError carries no stamped flight dump")
					}
					if len(kae.Injections) == 0 {
						t.Fatal("kill AbortError carries no injection log")
					}
					if err := flight.Reconcile(kae.FlightDump, kae.Injections); err != nil {
						t.Fatalf("kill dump does not reconcile: %v", err)
					}
					var killRendered strings.Builder
					if err := flight.Render(&killRendered, kae.FlightDump); err != nil {
						t.Fatal(err)
					}
					if !strings.Contains(killRendered.String(), "ABORTED:") ||
						!strings.Contains(killRendered.String(), "[injected]") {
						t.Fatalf("kill render lacks abort/injection markers:\n%s", killRendered.String())
					}
					aborted++

					for seed := int64(1); seed <= chaosSeeds; seed++ {
						plan := chaos.NewRandomPlan(seed, harnessNodes)
						ccfg := harnessConfig(transport)
						ccfg.Workers = chaosWidth
						ccfg.Chaos = &plan

						leak := testutil.CheckGoroutines(t)
						got, err := run(ccfg)
						leak()
						if t.Failed() {
							t.Fatalf("seed %d (%s): goroutine leak", seed, plan)
						}
						if err != nil {
							aborted++
							var ae *core.AbortError
							if !errors.As(err, &ae) {
								t.Fatalf("seed %d (%s): abort is not an AbortError: %v", seed, plan, err)
							}
							if ae.FlightDump == nil || !ae.FlightDump.Aborted || ae.FlightDump.Cause == "" {
								t.Fatalf("seed %d (%s): AbortError carries no stamped flight dump", seed, plan)
							}
							if err := flight.Reconcile(ae.FlightDump, ae.Injections); err != nil {
								t.Fatalf("seed %d (%s): %v", seed, plan, err)
							}
							var rendered strings.Builder
							if err := flight.Render(&rendered, ae.FlightDump); err != nil {
								t.Fatalf("seed %d (%s): rendering dump: %v", seed, plan, err)
							}
							if !strings.Contains(rendered.String(), "ABORTED:") {
								t.Fatalf("seed %d (%s): render lacks abort marker:\n%s",
									seed, plan, rendered.String())
							}
							continue
						}
						completed++
						if !reflect.DeepEqual(got.Payload, base.Payload) {
							t.Fatalf("seed %d (%s): completed faulted run differs from fault-free Workers=1 run",
								seed, plan)
						}
					}
				})
			}
			t.Logf("%s: %d completed, %d aborted of %d faulted kernel runs",
				transport, completed, aborted, chaosSeeds*len(parityArgs))
			if completed == 0 {
				t.Error("no faulted kernel run completed: the sweep never exercised recovery under fan-out")
			}
			if aborted == 0 {
				t.Error("no faulted kernel run aborted: the sweep never exercised teardown under fan-out")
			}
		})
	}
}
