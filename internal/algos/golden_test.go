package algos

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"swbfs/internal/core"
	"swbfs/internal/fabric"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/round_stats.golden.json from the current engine")

const roundStatsGolden = "testdata/round_stats.golden.json"

// tableRun names a table kernel and the arguments to run it with.
type tableRun struct{ kernel, args string }

// runInfo runs a table kernel from root and returns its machine-level
// outcome.
func runInfo(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, run tableRun) (*RunInfo, error) {
	k, err := KernelByName(run.kernel)
	if err != nil {
		return nil, err
	}
	res, err := k.Run(cfg, wg, root, run.args, nil)
	if err != nil {
		return nil, err
	}
	return reflect.ValueOf(res).Elem().FieldByName("Info").Interface().(*RunInfo), nil
}

// goldenKernels maps each golden key to the table kernel and arguments it
// runs; the weighted kernels run from root 3.
var goldenKernels = map[string]tableRun{
	"wcc":        {"wcc", ""},
	"pagerank3":  {"pagerank", "iterations=3 damping=0.85"},
	"kcore4":     {"kcore", "k=4"},
	"sssp":       {"sssp", ""},
	"delta-sssp": {"delta-sssp", "delta=16"},
}

// goldenRun is the modelled outcome of one kernel run that a host-side
// change to the send path must leave untouched.
type goldenRun struct {
	Levels          []perf.LevelStats
	NetworkBytes    int64
	NetworkMessages int64
}

// TestRoundStatsMatchGolden pins per-round statistics and wire totals of
// WCC, PageRank(3) and K-core(4) at scale 10 on both transports and two
// worker widths against a file generated before the send path was batched:
// staging, chunk hand-off and the relay's dense drain are host-side only.
// The SSSP and delta-stepping (delta 16) rows from root 3 were generated
// while delta-stepping still kept its request sets in maps and sorted them
// before sending, so they hold its bitmap scan to the same send order.
func TestRoundStatsMatchGolden(t *testing.T) {
	g := kron(t, 10, 11)
	wg := testutil.Weighted(t, g, 5)
	got := map[string]goldenRun{}
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		for _, workers := range []int{1, 3} {
			cfg := machine(8, transport) // relay: 2 groups of 4
			cfg.Workers = workers
			for name, run := range goldenKernels {
				info, err := runInfo(cfg, wg, 3, run)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", name, transport, workers, err)
				}
				key := fmt.Sprintf("%s/%s/workers=%d", name, transport, workers)
				got[key] = goldenRun{info.Levels, info.NetworkBytes, info.NetworkMessages}
			}
		}
	}

	testutil.Golden(t, roundStatsGolden, *updateGolden, got)
}

// TestTermsRepriceRoundStats re-prices every level of every committed
// round_stats row through perf.Model.Terms and gets, bit for bit, the Time
// the same run reports.
func TestTermsRepriceRoundStats(t *testing.T) {
	data, err := os.ReadFile(roundStatsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenRun
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	g := kron(t, 10, 11)
	wg := testutil.Weighted(t, g, 5)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		cfg := machine(8, transport)
		topo, err := fabric.NewTopology(cfg.Nodes, cfg.SuperNodeSize)
		if err != nil {
			t.Fatal(err)
		}
		m := perf.NewModel(topo, cfg.Engine)
		for name, run := range goldenKernels {
			info, err := runInfo(cfg, wg, 3, run)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%s/workers=1", name, transport)
			var total float64
			for _, s := range golden[key].Levels {
				total += m.Terms(s).Total()
			}
			if len(golden[key].Levels) == 0 || math.Float64bits(total) != math.Float64bits(info.Time) {
				t.Errorf("%s: re-priced %v s, the run reports %v", key, total, info.Time)
			}
		}
	}
}

// TestChargedCollectivesPerRound pins what a round of every round kernel
// in the table charges on the modelled clock's collective terms: the
// driver's activity allreduce plus the kernel's own collectives, each of
// which decides something. Round statistics fold from per-node slots behind
// host-only rendezvous, which cost nothing.
func TestChargedCollectivesPerRound(t *testing.T) {
	g := kron(t, 9, 7)
	wg := testutil.Weighted(t, g, 5)
	root := testutil.FirstConnected(t, g)
	_, depth := core.ReferenceBFS(g, root)
	ecc := slices.Max(depth)
	none := func(int) int64 { return 0 }
	one := func(int) int64 { return 1 }
	own := map[string]func(round int) int64{
		"sssp":       none,
		"wcc":        none,
		"kcore":      none,
		"pagerank":   one, // the dangling-mass sum
		"delta-sssp": one, // the light phase's pending sum or the heavy phase's next-bucket max
		// The forward sweep's growth sum: ecc+1 forward rounds from the
		// one source, then ecc backward rounds with no collective.
		"betweenness": func(round int) int64 {
			if int64(round) <= ecc {
				return 1
			}
			return 0
		},
	}
	args := ckptArgs(root)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		for _, k := range Kernels {
			if k.Name == core.KernelBFS {
				continue // TestChargedCollectivesPerLevel in core
			}
			calls, ok := own[k.Name]
			if !ok {
				t.Fatalf("no count of kernel %q's own collectives", k.Name)
			}
			info, err := runInfo(machine(8, transport), wg, root, tableRun{k.Name, args[k.Name]})
			if err != nil {
				t.Fatalf("%s %s: %v", k.Name, transport, err)
			}
			for _, s := range info.Levels {
				if want := 1 + calls(s.Level); s.Net.CollectiveOps != want {
					t.Errorf("%s %s round %d: %d charged collectives, want %d", k.Name, transport, s.Level, s.Net.CollectiveOps, want)
				}
			}
		}
	}
}
