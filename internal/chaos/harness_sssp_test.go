// The algorithm-driver half of the chaos harness: the same recovery
// contract as harness_test.go, exercised through internal/algos instead of
// the BFS runner — seeded fault plans swept through SSSP and delta-stepping
// SSSP runs. A completed chaotic run must be bit-identical to fault-free
// (distances AND the per-round LevelStats); an aborted run must surface a
// clean *core.AbortError and leak nothing. `make chaos` runs these under
// -race alongside the BFS sweep.
package chaos_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"swbfs/internal/algos"
	"swbfs/internal/chaos"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

const ssspPlans = 12

func ssspGraph(t testing.TB) *graph.WeightedCSR {
	t.Helper()
	return testutil.Weighted(t, harnessGraph(t), 7)
}

func ssspConfig(transport core.Transport) core.Config {
	return core.Config{
		Nodes:         harnessNodes,
		SuperNodeSize: 4,
		Transport:     transport,
		Engine:        perf.EngineMPE,
		Workers:       2,
		BatchBytes:    1 << 10,
		LevelTimeout:  20 * time.Second,
	}
}

// ssspResult is the comparable digest of one run of either kernel.
type ssspResult struct {
	dist   []int64
	levels []perf.LevelStats
}

// runKernel executes one chaotic (or fault-free, plan == nil) run of the
// named kernel and digests the output.
func runKernel(t *testing.T, kernel string, cfg core.Config, wg *graph.WeightedCSR) (*ssspResult, []chaos.Fault, error) {
	t.Helper()
	switch kernel {
	case "sssp":
		res, err := algos.SSSP(cfg, wg, harnessRoot)
		if err != nil {
			return nil, nil, err
		}
		return &ssspResult{dist: res.Dist, levels: res.Info.Levels}, res.Info.Injections, nil
	case "delta-sssp":
		res, err := algos.DeltaSSSP(cfg, wg, harnessRoot, 16)
		if err != nil {
			return nil, nil, err
		}
		return &ssspResult{dist: res.Dist, levels: res.Info.Levels}, res.Info.Injections, nil
	default:
		t.Fatalf("unknown kernel %q", kernel)
		return nil, nil, nil
	}
}

// TestChaosSSSPHarness sweeps seeded plans through both SSSP kernels on
// both transports: completed runs are bit-identical to fault-free, aborted
// runs fail cleanly, and the mix exercises both outcomes.
func TestChaosSSSPHarness(t *testing.T) {
	wg := ssspGraph(t)
	for _, kernel := range []string{"sssp", "delta-sssp"} {
		for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
			t.Run(kernel+"/"+transport.String(), func(t *testing.T) {
				cfg := ssspConfig(transport)

				base, _, err := runKernel(t, kernel, cfg, wg)
				if err != nil {
					t.Fatalf("baseline: %v", err)
				}
				again, _, err := runKernel(t, kernel, cfg, wg)
				if err != nil {
					t.Fatalf("baseline rerun: %v", err)
				}
				if !reflect.DeepEqual(base, again) {
					t.Fatal("fault-free run is not deterministic")
				}

				completed, aborted := 0, 0
				for seed := int64(1); seed <= ssspPlans; seed++ {
					plan := chaos.NewRandomPlan(seed, harnessNodes)
					ccfg := cfg
					ccfg.Chaos = &plan

					leak := testutil.CheckGoroutines(t)
					res1, log1, err1 := runKernel(t, kernel, ccfg, wg)
					res2, log2, err2 := runKernel(t, kernel, ccfg, wg)
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
						if !errors.As(err1, &killed) && !errors.Is(err1, core.ErrLevelTimeout) {
							t.Fatalf("seed %d (%s): abort cause is neither kill nor timeout: %v",
								seed, plan, err1)
						}
						continue
					}
					completed++
					if !reflect.DeepEqual(res1, base) {
						t.Fatalf("seed %d (%s): chaotic run differs from fault-free run", seed, plan)
					}
					if !reflect.DeepEqual(res2, base) {
						t.Fatalf("seed %d (%s): second run diverged", seed, plan)
					}
					if !reflect.DeepEqual(log1, log2) {
						t.Fatalf("seed %d (%s): injection logs differ:\n%v\nvs\n%v",
							seed, plan, log1, log2)
					}
				}
				t.Logf("%s/%s: %d completed, %d aborted of %d plans",
					kernel, transport, completed, aborted, ssspPlans)
				if completed == 0 {
					t.Error("no plan completed: the sweep never exercised recovery")
				}
			})
		}
	}
}

// TestChaosSSSPKillAborts pins the algos kill semantics: a kill on the
// first data delivery aborts the SSSP run with a clean AbortError wrapping
// ErrNodeKilled, the partial LevelStats report is attached, and nothing
// leaks.
func TestChaosSSSPKillAborts(t *testing.T) {
	wg := ssspGraph(t)
	plan, err := chaos.ParsePlan("kill@1:l0:data/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ssspConfig(core.TransportDirect)
	cfg.Chaos = &plan

	leak := testutil.CheckGoroutines(t)
	res, err := algos.SSSP(cfg, wg, harnessRoot)
	leak()
	if res != nil || err == nil {
		t.Fatalf("killed run returned (%v, %v)", res, err)
	}
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an AbortError: %v", err)
	}
	if ae.Root != harnessRoot {
		t.Fatalf("abort root = %d, want %d", ae.Root, harnessRoot)
	}
	var killed *comm.ErrNodeKilled
	if !errors.As(err, &killed) {
		t.Fatalf("cause is not ErrNodeKilled: %v", err)
	}
}

// TestChaosDeltaSSSPRetryRecovers: transient faults on a delta-stepping run
// are retried away and the distances and per-round stats stay bit-identical
// to the fault-free run, with the injections on the run report.
func TestChaosDeltaSSSPRetryRecovers(t *testing.T) {
	wg := ssspGraph(t)
	cfg := ssspConfig(core.TransportDirect)
	base, err := algos.DeltaSSSP(cfg, wg, harnessRoot, 16)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := chaos.ParsePlan("sendfail@1:l1:data/forward:0,drop@6:l2:data/forward:0,dup@0:l3:data/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = &plan
	res, err := algos.DeltaSSSP(cfg, wg, harnessRoot, 16)
	if err != nil {
		t.Fatalf("faulted run aborted: %v", err)
	}
	if !reflect.DeepEqual(res.Dist, base.Dist) {
		t.Fatal("recovered distances differ from fault-free run")
	}
	if !reflect.DeepEqual(res.Info.Levels, base.Info.Levels) {
		t.Fatal("recovered round stats differ from fault-free run")
	}
	if len(res.Info.Injections) == 0 {
		t.Fatal("no fault fired (plan missed every coordinate)")
	}
	if len(base.Info.Injections) != 0 {
		t.Fatalf("fault-free run reports injections: %v", base.Info.Injections)
	}
}

// TestChaosSSSPLevelTimeout: a stalled SSSP generator trips the algos
// watchdog, producing ErrLevelTimeout inside a clean AbortError.
func TestChaosSSSPLevelTimeout(t *testing.T) {
	wg := ssspGraph(t)
	plan, err := chaos.ParsePlan("delay-gen@1:l1:800")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ssspConfig(core.TransportDirect)
	cfg.Chaos = &plan
	cfg.LevelTimeout = 150 * time.Millisecond

	leak := testutil.CheckGoroutines(t)
	res, err := algos.SSSP(cfg, wg, harnessRoot)
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
	if len(ae.CompletedLevels) == 0 {
		t.Fatal("partial report is empty: round 0 completed before the stall")
	}
}
