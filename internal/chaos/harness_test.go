// The chaos harness: sweep seeded fault plans through full BFS runs on
// both transports and assert the recovery contract of docs/CHAOS.md —
//
//   - a run that completes despite injected faults produces a parent tree
//     and LevelStats bit-identical to the fault-free run;
//   - a run that aborts does so cleanly: an *core.AbortError wrapping the
//     real cause, no goroutine leaks, no hung inboxes;
//   - the same plan replayed on the same configuration injects the same
//     faults (the sorted injection logs match).
//
// `make chaos` runs exactly these tests under -race.
package chaos_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"swbfs/internal/algos"
	"swbfs/internal/chaos"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/flight"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

const (
	harnessNodes = 8
	harnessRoot  = graph.Vertex(17)
	harnessPlans = 20
)

func harnessGraph(t testing.TB) *graph.CSR {
	t.Helper()
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func harnessConfig(transport core.Transport) core.Config {
	return core.Config{
		Nodes:              harnessNodes,
		SuperNodeSize:      4,
		Transport:          transport,
		Engine:             perf.EngineMPE,
		DirectionOptimized: true,
		HubPrefetch:        true,
		SmallMessageMPE:    true,
		Workers:            2,
		BatchBytes:         1 << 10,
		LevelTimeout:       20 * time.Second, // safety net: a hung run fails fast
	}
}

// runOnce builds a fresh runner for cfg and executes one rooted BFS.
func runOnce(t *testing.T, cfg core.Config, g *graph.CSR) (*core.Result, []chaos.Fault, error) {
	t.Helper()
	r, err := core.NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := r.Run(harnessRoot)
	return res, r.LastInjections(), runErr
}

func TestChaosHarness(t *testing.T) {
	g := harnessGraph(t)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := harnessConfig(transport)

			// Fault-free baseline, run twice: the parent tree itself must be
			// deterministic (the min-parent rule) or no chaos comparison
			// could ever hold.
			base, _, err := runOnce(t, cfg, g)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			again, _, err := runOnce(t, cfg, g)
			if err != nil {
				t.Fatalf("baseline rerun: %v", err)
			}
			if !reflect.DeepEqual(base.Parent, again.Parent) {
				t.Fatal("fault-free parent tree is not deterministic")
			}
			if !reflect.DeepEqual(base.Levels, again.Levels) {
				t.Fatal("fault-free LevelStats are not deterministic")
			}

			dumpDir := t.TempDir()
			completed, aborted := 0, 0
			for seed := int64(1); seed <= harnessPlans; seed++ {
				plan := chaos.NewRandomPlan(seed, harnessNodes)
				ccfg := cfg
				ccfg.Chaos = &plan
				ccfg.FlightDump = filepath.Join(dumpDir, fmt.Sprintf("seed%d.flight.json", seed))

				leak := testutil.CheckGoroutines(t)
				r, err := core.NewRunner(ccfg, g)
				if err != nil {
					t.Fatal(err)
				}
				// The same runner replays the plan twice: the injector is
				// rebuilt per Run, and a runner must stay usable after an
				// aborted run.
				res1, err1 := r.Run(harnessRoot)
				log1 := r.LastInjections()
				res2, err2 := r.Run(harnessRoot)
				log2 := r.LastInjections()
				leak()
				if t.Failed() {
					t.Fatalf("seed %d (%s): goroutine leak", seed, plan)
				}

				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("seed %d (%s): completion not deterministic: %v vs %v",
						seed, plan, err1, err2)
				}
				if err1 != nil {
					aborted++
					var ae *core.AbortError
					if !errors.As(err1, &ae) {
						t.Fatalf("seed %d (%s): abort is not an AbortError: %v", seed, plan, err1)
					}
					var killed *comm.ErrNodeKilled
					if !errors.As(err1, &killed) {
						t.Fatalf("seed %d (%s): abort cause is not a kill: %v", seed, plan, err1)
					}
					// Every aborted run leaves a post-mortem: the AbortError
					// carries the dump, the -flight-dump file parses, its inject
					// events reconcile 1:1 with the injection log, and the
					// renderer marks the injections. err2's file is the current
					// one — both runs wrote the same path.
					var ae2 *core.AbortError
					if !errors.As(err2, &ae2) {
						t.Fatalf("seed %d (%s): second abort is not an AbortError: %v", seed, plan, err2)
					}
					if ae2.FlightDump == nil || !ae2.FlightDump.Aborted || ae2.FlightDump.Cause == "" {
						t.Fatalf("seed %d (%s): AbortError carries no stamped flight dump", seed, plan)
					}
					if ae2.FlightPath != ccfg.FlightDump {
						t.Fatalf("seed %d (%s): flight path %q, want %q", seed, plan, ae2.FlightPath, ccfg.FlightDump)
					}
					data, err := os.ReadFile(ae2.FlightPath)
					if err != nil {
						t.Fatalf("seed %d (%s): written dump missing: %v", seed, plan, err)
					}
					d, err := obs.ReadFlightDump(bytes.NewReader(data))
					if err != nil {
						t.Fatalf("seed %d (%s): written dump unreadable: %v", seed, plan, err)
					}
					if err := flight.Reconcile(d, log2); err != nil {
						t.Fatalf("seed %d (%s): %v", seed, plan, err)
					}
					var rendered strings.Builder
					if err := flight.Render(&rendered, d); err != nil {
						t.Fatalf("seed %d (%s): rendering dump: %v", seed, plan, err)
					}
					if !strings.Contains(rendered.String(), "ABORTED:") ||
						!strings.Contains(rendered.String(), "[injected]") {
						t.Fatalf("seed %d (%s): render lacks abort/injection markers:\n%s",
							seed, plan, rendered.String())
					}
					continue
				}
				completed++
				if !reflect.DeepEqual(res1.Parent, base.Parent) {
					t.Fatalf("seed %d (%s): parent tree differs from fault-free run", seed, plan)
				}
				if !reflect.DeepEqual(res1.Levels, base.Levels) {
					t.Fatalf("seed %d (%s): LevelStats differ from fault-free run:\n%+v\nvs\n%+v",
						seed, plan, res1.Levels, base.Levels)
				}
				if !reflect.DeepEqual(res2.Parent, base.Parent) || !reflect.DeepEqual(res2.Levels, base.Levels) {
					t.Fatalf("seed %d (%s): second run diverged", seed, plan)
				}
				if !reflect.DeepEqual(log1, log2) {
					t.Fatalf("seed %d (%s): injection logs differ:\n%v\nvs\n%v", seed, plan, log1, log2)
				}
			}
			t.Logf("%s: %d completed, %d aborted of %d plans", transport, completed, aborted, harnessPlans)
			if completed == 0 {
				t.Error("no plan completed: the sweep never exercised recovery")
			}
			if aborted == 0 {
				t.Error("no plan aborted: the sweep never exercised teardown")
			}
		})
	}
}

// TestChaosKillAborts pins the kill semantics: a kill at the root owner's
// first forward delivery aborts the run with ErrNodeKilled as the cause,
// leak-free, and the kill appears in the injection log.
func TestChaosKillAborts(t *testing.T) {
	g := harnessGraph(t)
	owner := int(harnessRoot) % harnessNodes // round-robin partition
	plan, err := chaos.ParsePlan("kill@1:l0:data/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Faults[0].Node != owner {
		t.Fatalf("plan targets node %d, root owner is %d", plan.Faults[0].Node, owner)
	}
	cfg := harnessConfig(core.TransportDirect)
	cfg.Chaos = &plan

	leak := testutil.CheckGoroutines(t)
	res, log, err := runOnce(t, cfg, g)
	leak()
	if res != nil || err == nil {
		t.Fatalf("killed run returned (%v, %v)", res, err)
	}
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an AbortError: %v", err)
	}
	var killed *comm.ErrNodeKilled
	if !errors.As(err, &killed) {
		t.Fatalf("cause is not ErrNodeKilled: %v", err)
	}
	if killed.Node != owner || killed.Level != 0 {
		t.Fatalf("killed node %d at level %d, want node %d level 0", killed.Node, killed.Level, owner)
	}
	if len(log) != 1 || log[0].Kind != chaos.KindKill {
		t.Fatalf("injection log = %v, want exactly the kill", log)
	}
}

// TestChaosRetryRecovers: transient send failures and wire drops are
// retried and the run completes bit-identical to fault-free, with the
// retries visible in the metrics.
func TestChaosRetryRecovers(t *testing.T) {
	g := harnessGraph(t)
	cfg := harnessConfig(core.TransportDirect)
	base, _, err := runOnce(t, cfg, g)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := chaos.ParsePlan("sendfail@1:l0:data/forward:0,drop@3:l1:data/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = &plan
	cfg.Obs = obs.New()
	res, log, err := runOnce(t, cfg, g)
	if err != nil {
		t.Fatalf("faulted run aborted: %v", err)
	}
	if !reflect.DeepEqual(res.Parent, base.Parent) || !reflect.DeepEqual(res.Levels, base.Levels) {
		t.Fatal("recovered run differs from fault-free run")
	}
	if len(log) == 0 {
		t.Fatal("no fault fired")
	}
	m := cfg.Obs.Metrics
	if v := m.Counter("comm.retries").Value(); v < 1 {
		t.Fatalf("comm.retries = %d, want >= 1", v)
	}
	if v := m.Counter("chaos.injected").Value(); int(v) != len(log) {
		t.Fatalf("chaos.injected = %d, log has %d", v, len(log))
	}
}

// TestChaosDupDelivered: a duplicated delivery is discarded by the
// receiver before any accounting, so the run stays bit-identical.
func TestChaosDupDelivered(t *testing.T) {
	g := harnessGraph(t)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := harnessConfig(transport)
			base, _, err := runOnce(t, cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			spec := "dup@1:l0:data/forward:0"
			if transport == core.TransportRelay {
				spec = "dup@1:l0:relay-data/forward:0"
			}
			plan, err := chaos.ParsePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Chaos = &plan
			cfg.Obs = obs.New()
			res, log, err := runOnce(t, cfg, g)
			if err != nil {
				t.Fatalf("dup run aborted: %v", err)
			}
			if len(log) != 1 || log[0].Kind != chaos.KindDup {
				t.Fatalf("injection log = %v, want the dup", log)
			}
			if !reflect.DeepEqual(res.Parent, base.Parent) || !reflect.DeepEqual(res.Levels, base.Levels) {
				t.Fatal("duplicated delivery perturbed the run")
			}
			if v := cfg.Obs.Metrics.Counter("chaos.injected.dup").Value(); v != 1 {
				t.Fatalf("chaos.injected.dup = %d, want 1", v)
			}
		})
	}
}

// TestChaosDupCarriedEnd: a dup scheduled on a sender's first End strikes
// the data batch that carries it, when there is one: the End still takes
// its own op, and a sender ships its End-carrying batches before any bare
// End. The receiver discards the second copy before any accounting, so the
// End is counted once — a second count would close the channel a peer
// early — and the run stays bit-identical to the clean one.
func TestChaosDupCarriedEnd(t *testing.T) {
	g := harnessGraph(t)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := harnessConfig(transport)
			cfg.Obs = obs.New()
			cfg.Obs.Flight = obs.NewFlightRecorder(1 << 14)
			base, _, err := runOnce(t, cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			// The first sender of a forward batch that carries an End.
			var carrier *obs.FlightEvent
			events := cfg.Obs.Flight.Dump().Events
			for i := range events {
				if ev := &events[i]; ev.Kind == obs.FlightSend && ev.End && ev.Channel == "forward" && ev.Level > 0 {
					carrier = ev
					break
				}
			}
			if carrier == nil {
				t.Fatal("no forward batch carried an End")
			}
			endWire := map[string]string{"data": "end", "relay-data": "relay-end"}[carrier.Wire]
			spec := fmt.Sprintf("dup@%d:l%d:%s/forward:0", carrier.Node, carrier.Level, endWire)
			plan, err := chaos.ParsePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Chaos = &plan
			cfg.Obs = obs.New()
			cfg.Obs.Flight = obs.NewFlightRecorder(1 << 14)
			res, log, err := runOnce(t, cfg, g)
			if err != nil {
				t.Fatalf("%s: dup run aborted: %v", spec, err)
			}
			if len(log) != 1 || log[0].String() != spec {
				t.Fatalf("injection log = %v, want %s", log, spec)
			}
			var drops []obs.FlightEvent
			for _, ev := range cfg.Obs.Flight.Dump().Events {
				if ev.Kind == obs.FlightDupDrop {
					drops = append(drops, ev)
				}
			}
			if len(drops) != 1 || !drops[0].End || drops[0].Wire != carrier.Wire || drops[0].Peer != carrier.Node {
				t.Fatalf("%s: dup-drop events %+v, want one of node %d's End-carrying %s batches",
					spec, drops, carrier.Node, carrier.Wire)
			}
			if !reflect.DeepEqual(res.Parent, base.Parent) || !reflect.DeepEqual(res.Levels, base.Levels) {
				t.Fatalf("%s: the duplicated End-carrying batch perturbed the run", spec)
			}
		})
	}
}

// TestChaosLevelTimeout: a generator stalled past the watchdog deadline
// aborts the run with ErrLevelTimeout and a partial-result report of the
// levels that did complete.
func TestChaosLevelTimeout(t *testing.T) {
	g := harnessGraph(t)
	plan, err := chaos.ParsePlan("delay-gen@1:l1:800")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harnessConfig(core.TransportDirect)
	cfg.Chaos = &plan
	cfg.LevelTimeout = 150 * time.Millisecond

	leak := testutil.CheckGoroutines(t)
	res, _, err := runOnce(t, cfg, g)
	leak()
	if res != nil || err == nil {
		t.Fatalf("stalled run returned (%v, %v)", res, err)
	}
	if !errors.Is(err, core.ErrLevelTimeout) {
		t.Fatalf("error is not ErrLevelTimeout: %v", err)
	}
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an AbortError: %v", err)
	}
	if len(ae.CompletedLevels) != 1 {
		t.Fatalf("partial report has %d levels, want 1 (level 0 completed before the stall)",
			len(ae.CompletedLevels))
	}
}

// TestChaosStragglerFlagged: a delayed node is flagged as a straggler on
// the live event stream, in the run's RunTrace, in the metrics and in the
// Chrome trace — by the machine's level loop, so for BFS and the round
// kernels alike. A stalled handler on a relay node is flagged too, not the
// nodes whose batches it relays: they wait for it, and waiting is not
// handler time.
func TestChaosStragglerFlagged(t *testing.T) {
	wg := ssspGraph(t)
	cases := []struct {
		transport core.Transport
		plan      string
		node      int
	}{
		{core.TransportDirect, "delay-gen@2:l1:40", 2},
		{core.TransportRelay, "delay-handler@3:l1:100", 3},
	}
	for _, kernel := range []string{"bfs", "sssp", "wcc"} {
		k, err := algos.KernelByName(kernel)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(kernel, func(t *testing.T) {
			for _, c := range cases {
				plan, err := chaos.ParsePlan(c.plan)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(c.transport.String(), func(t *testing.T) {
					cfg := harnessConfig(c.transport)
					cfg.Chaos = &plan
					cfg.StragglerFactor = 2
					cfg.Obs = obs.New()
					cfg.Obs.Progress = obs.NewProgressBroker()
					events, cancel := cfg.Obs.Progress.Subscribe(256)
					defer cancel()

					if _, err := k.Run(cfg, wg, harnessRoot, "", nil); err != nil {
						t.Fatalf("delayed run aborted: %v", err)
					}

					found := false
					for done := false; !done; {
						select {
						case ev := <-events:
							if ev.Kind == obs.EventStraggler && ev.Node == c.node && ev.Level == 1 {
								found = true
								if ev.HostSeconds <= ev.MeanHostSeconds {
									t.Fatalf("straggler event host %.6fs <= mean %.6fs", ev.HostSeconds, ev.MeanHostSeconds)
								}
								done = true
							}
						default:
							done = true
						}
					}
					if !found {
						t.Fatalf("no straggler event for node %d level 1 on the live stream", c.node)
					}

					runs := cfg.Obs.Trace.Runs()
					if len(runs) == 0 {
						t.Fatal("no recorded runs")
					}
					var flagged bool
					for _, sf := range runs[len(runs)-1].Stragglers {
						if sf.Node == c.node && sf.Level == 1 {
							flagged = true
						}
					}
					if !flagged {
						t.Fatalf("recorded stragglers = %+v, want node %d level 1", runs[len(runs)-1].Stragglers, c.node)
					}
					if v := cfg.Obs.Metrics.Counter("core.stragglers").Value(); v < 1 {
						t.Fatalf("core.stragglers = %d, want >= 1", v)
					}

					var buf bytes.Buffer
					if err := obs.WriteChromeTrace(&buf, runs); err != nil {
						t.Fatal(err)
					}
					if !bytes.Contains(buf.Bytes(), []byte(`"straggler L1"`)) {
						t.Fatal("Chrome trace has no straggler instant event")
					}
				})
			}
		})
	}
}

// TestChaosSeedReproducesInjections: the same -chaos-seed always derives
// the same plan and fires the same faults.
func TestChaosSeedReproducesInjections(t *testing.T) {
	g := harnessGraph(t)
	plan := chaos.NewRandomPlan(5, harnessNodes)
	if !reflect.DeepEqual(plan, chaos.NewRandomPlan(5, harnessNodes)) {
		t.Fatal("seed 5 derived two different plans")
	}
	cfg := harnessConfig(core.TransportRelay)
	cfg.Chaos = &plan
	_, log1, err1 := runOnce(t, cfg, g)
	_, log2, err2 := runOnce(t, cfg, g)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("completion not deterministic: %v vs %v", err1, err2)
	}
	if err1 == nil && !reflect.DeepEqual(log1, log2) {
		t.Fatalf("injection logs differ:\n%v\nvs\n%v", log1, log2)
	}
}
