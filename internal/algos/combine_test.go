package algos

import (
	"math/rand"
	"reflect"
	"testing"

	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

// captureEndpoint records what a lane sends it.
type captureEndpoint struct {
	comm.Endpoint
	pairs []comm.Pair
}

func (c *captureEndpoint) SendMany(_ comm.Channel, _ []comm.DstRun, pairs []comm.Pair) error {
	c.pairs = append(c.pairs, pairs...)
	return nil
}

// combined folds pairs, bound for the locals of a single node, through a
// combiner fed in chunks of the given size, and returns what it ships.
func combined(t *testing.T, f comm.Fold, n int64, pairs []comm.Pair, chunk int) []comm.Pair {
	t.Helper()
	c := newCombiner(nil, graph.NewRoundRobin(n, 1), f)
	defer c.release()
	for lo := 0; lo < len(pairs); lo += chunk {
		hi := min(lo+chunk, len(pairs))
		if err := c.SendMany(comm.ChanForward, []comm.DstRun{{Dst: 0, N: hi - lo}}, pairs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	var out captureEndpoint
	var lane comm.Lane
	lane.Open(&out, comm.ChanForward)
	defer lane.Release()
	if err := c.drain(&lane); err != nil {
		t.Fatal(err)
	}
	if err := lane.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out.pairs); i++ {
		if out.pairs[i-1][0] >= out.pairs[i][0] {
			t.Fatalf("shipped vertex %d after %d: not one pair per vertex in ascending order", out.pairs[i][0], out.pairs[i-1][0])
		}
	}
	lane.Open(&captureEndpoint{}, comm.ChanForward)
	if err := c.drain(&lane); err != nil || len(lane.Pairs) != 0 {
		t.Fatalf("a drained combiner drains again: %d pairs, %v", len(lane.Pairs), err)
	}
	return out.pairs
}

// TestCombineMatchesHandle: for every kernel that declares a fold, random
// pair multisets, in shuffled orders and cut into chunks of several sizes,
// leave the same kernel state through Handle of every pair and through
// Handle of the combiner's folded pairs. The kernels that keep their pairs
// whole declare no fold.
func TestCombineMatchesHandle(t *testing.T) {
	const n = 300
	values := func(r *rand.Rand) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = r.Int63n(1000)
		}
		return v
	}
	kernels := map[string]func(r *rand.Rand) RoundAlgo{
		"wcc": func(r *rand.Rand) RoundAlgo {
			w := &relaxNode[graph.Vertex]{val: make([]graph.Vertex, n), active: graph.NewBitmap(n), activated: make(tally, 1)}
			for i, l := range values(r) {
				w.val[i] = graph.Vertex(l)
			}
			return w
		},
		"sssp": func(r *rand.Rand) RoundAlgo {
			return &relaxNode[int64]{val: values(r), active: graph.NewBitmap(n), activated: make(tally, 1)}
		},
		"pagerank": func(r *rand.Rand) RoundAlgo {
			return &prNode{acc: values(r)}
		},
	}
	rng := rand.New(rand.NewSource(7))
	for name, fresh := range kernels {
		c, ok := fresh(rng).(combining)
		if !ok {
			t.Fatalf("%s declares no fold", name)
		}
		f := c.pairFold()
		for trial := 0; trial < 20; trial++ {
			pairs := make([]comm.Pair, rng.Intn(4*n))
			for i := range pairs {
				v := graph.Vertex(rng.Int63n(1100) - 50)
				if f == comm.FoldSum {
					v = graph.Vertex(rng.Uint64()) // the integer sum wraps exactly
				}
				pairs[i] = comm.Pair{graph.Vertex(rng.Int63n(n)), v}
			}
			seed := rng.Int63()
			all, folded := fresh(rand.New(rand.NewSource(seed))), fresh(rand.New(rand.NewSource(seed)))
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			all.Handle(0, append([]comm.Pair(nil), pairs...))
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			folded.Handle(0, combined(t, f, n, pairs, 1+rng.Intn(64)))
			if !reflect.DeepEqual(all, folded) {
				t.Fatalf("%s trial %d: Handle of the folded pairs leaves another state than Handle of all %d", name, trial, len(pairs))
			}
		}
	}
	for name, k := range map[string]RoundAlgo{"kcore": &kcoreNode{}, "delta-sssp": &deltaNode{}, "betweenness": &bcNode{}} {
		if _, ok := k.(combining); ok {
			t.Errorf("%s declares a fold", name)
		}
	}
}

// TestRoundPairsMatchOracle holds what a combined round delivers to an
// independent count: in a PageRank iteration and in WCC's round 0 every
// vertex sends along every edge, so each node's forward handler receives
// exactly testutil.RoundPairs' distinct (sending node, vertex) pairs — read
// from the work ledger's handler bytes — on both transports and at two
// worker widths.
func TestRoundPairsMatchOracle(t *testing.T) {
	const nodes = 8
	g := kron(t, 10, 11)
	want := testutil.RoundPairs(g, nodes)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		for _, workers := range []int{1, 3} {
			cfg := machine(nodes, transport)
			cfg.Workers = workers
			cfg.Obs = obs.New()
			if _, err := PageRank(cfg, g, 2, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := WCC(cfg, g); err != nil {
				t.Fatal(err)
			}
			runs := cfg.Obs.Trace.Runs()
			for _, c := range []struct {
				kernel string
				run    obs.RunTrace
				rounds []int
			}{{"pagerank", runs[0], []int{0, 1}}, {"wcc", runs[1], []int{0}}} {
				for _, round := range c.rounds {
					got := make([]int64, nodes)
					for _, sp := range c.run.Spans {
						if sp.Module == obs.ModuleForwardHandler && sp.Level == round {
							got[sp.Node] += sp.Bytes / comm.PairBytes
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s workers=%d round %d: nodes received %v pairs, the oracle counts %v",
							c.kernel, transport, workers, round, got, want)
					}
				}
			}
		}
	}
}
