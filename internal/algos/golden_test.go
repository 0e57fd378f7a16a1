package algos

import (
	"flag"
	"fmt"
	"testing"

	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/round_stats.golden.json from the current engine")

const roundStatsGolden = "testdata/round_stats.golden.json"

// kernelRun runs one rootless kernel and returns its machine-level outcome.
type kernelRun func(cfg core.Config, g *graph.CSR) (*RunInfo, error)

func wccInfo(cfg core.Config, g *graph.CSR) (*RunInfo, error) {
	r, err := WCC(cfg, g)
	if err != nil {
		return nil, err
	}
	return r.Info, nil
}

func pagerankInfo(iterations int) kernelRun {
	return func(cfg core.Config, g *graph.CSR) (*RunInfo, error) {
		r, err := PageRank(cfg, g, iterations, 0)
		if err != nil {
			return nil, err
		}
		return r.Info, nil
	}
}

func kcoreInfo(k int64) kernelRun {
	return func(cfg core.Config, g *graph.CSR) (*RunInfo, error) {
		r, err := KCore(cfg, g, k)
		if err != nil {
			return nil, err
		}
		return r.Info, nil
	}
}

func ssspInfo(wg *graph.WeightedCSR, root graph.Vertex) kernelRun {
	return func(cfg core.Config, _ *graph.CSR) (*RunInfo, error) {
		r, err := SSSP(cfg, wg, root)
		if err != nil {
			return nil, err
		}
		return r.Info, nil
	}
}

func deltaInfo(wg *graph.WeightedCSR, root graph.Vertex, delta int64) kernelRun {
	return func(cfg core.Config, _ *graph.CSR) (*RunInfo, error) {
		r, err := DeltaSSSP(cfg, wg, root, delta)
		if err != nil {
			return nil, err
		}
		return r.Info, nil
	}
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
			runs := map[string]kernelRun{
				"wcc": wccInfo, "pagerank3": pagerankInfo(3), "kcore4": kcoreInfo(4),
				"sssp": ssspInfo(wg, 3), "delta-sssp": deltaInfo(wg, 3, 16),
			}
			for kernel, run := range runs {
				info, err := run(cfg, g)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", kernel, transport, workers, err)
				}
				key := fmt.Sprintf("%s/%s/workers=%d", kernel, transport, workers)
				got[key] = goldenRun{info.Levels, info.NetworkBytes, info.NetworkMessages}
			}
		}
	}

	testutil.Golden(t, roundStatsGolden, *updateGolden, got)
}
