package algos

import (
	"flag"
	"fmt"
	"reflect"
	"testing"

	"swbfs/internal/core"
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
