package comm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"swbfs/internal/graph"
)

// foldOracle is the batch fold written out with a map: one pair per
// column-1 value, in order of first occurrence, column 0 folded by f.
func foldOracle(f Fold, pairs []Pair) []Pair {
	at := map[graph.Vertex]int{}
	var out []Pair
	for _, p := range pairs {
		if i, ok := at[p[1]]; ok {
			out[i][0] = f.Apply(out[i][0], p[0])
			continue
		}
		at[p[1]] = len(out)
		out = append(out, p)
	}
	return out
}

// strided returns n pairs bound for node dst of a nodes-node round-robin
// machine: column 1 one of keys vertices dst, dst+nodes, ..., column 0
// any vertex — the shape of a top-down batch.
func strided(rng *rand.Rand, n, keys, nodes, dst int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{graph.Vertex(rng.Int63n(1 << 40)), graph.Vertex(rng.Intn(keys)*nodes + dst)}
	}
	return pairs
}

// TestBatchFoldMatchesOracle: the fold of random batches — parents in any
// order, few or many distinct keys, every batch size up to a quantum — and
// of an empty batch, a single pair and a batch of one key equals the map
// oracle's, for both folds, through one scratch reused across all of them.
func TestBatchFoldMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	cases := map[string][]Pair{
		"empty":      {},
		"single":     {{7, 3}},
		"all-equal":  strided(rng, 300, 1, 16, 5),
		"two-keys":   strided(rng, 2, 1, 4, 1),
		"negative-u": {{-4, 9}, {2, 9}, {-8, 1}, {-9, 9}},
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4096)
		cases[fmt.Sprintf("random-%d", trial)] = strided(rng, n, 1+rng.Intn(2*n), 1+rng.Intn(64), rng.Intn(1<<20))
	}
	var s batchFold
	for name, pairs := range cases {
		for _, f := range []Fold{FoldMin, FoldSum} {
			want := foldOracle(f, pairs)
			got := s.fold(f, append([]Pair(nil), pairs...))
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s fold %d: %d pairs fold to %v, the oracle keeps %v", name, f, len(pairs), got, want)
			}
		}
	}
}

// TestBatchFoldAllocatesNothing: once its table has grown to a quantum, the
// fold allocates nothing per batch, at either end of the batch sizes.
func TestBatchFoldAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s batchFold
	for _, n := range []int{4096, 64} {
		src := strided(rng, n, n/2, 16, 3)
		work := make([]Pair, n)
		s.fold(FoldMin, append(work[:0], src...))
		if allocs := testing.AllocsPerRun(100, func() { s.fold(FoldMin, append(work[:0], src...)) }); allocs != 0 {
			t.Fatalf("%d-pair fold: %.1f allocations per batch, want 0", n, allocs)
		}
	}
}

// TestSendQuantaFoldMatchReference is TestSendQuantaMatchReference with a
// declared fold and repeated keys: both transports cut the unfolded
// per-group sequence into quanta and fold each inner batch as it is sealed,
// whatever the chunking of the stream.
func TestSendQuantaFoldMatchReference(t *testing.T) {
	for _, shape := range []GroupShape{{N: 2, M: 2}, {N: 1, M: 4}, {N: 4, M: 1}} {
		const q = 64
		s := quantumStream(shape, q, int64(shape.N*10+shape.M))
		rng := rand.New(rand.NewSource(int64(shape.M)))
		var dsts []int
		for _, r := range s.Runs {
			for i := 0; i < r.N; i++ {
				dsts = append(dsts, r.Dst)
			}
		}
		for i := range s.Pairs {
			s.Pairs[i] = Pair{graph.Vertex(rng.Intn(1000)), graph.Vertex(rng.Intn(24))}
		}
		for _, relay := range []bool{false, true} {
			members := 1
			if relay {
				members = shape.M
			}
			want := referenceQuanta(dsts, s.Pairs, members, q)
			for _, quanta := range want {
				for _, quantum := range quanta {
					for i := range quantum {
						quantum[i].Pairs = foldOracle(FoldMin, quantum[i].Pairs)
					}
				}
			}
			for _, how := range []string{"one-call", "per-pair", "random-splits"} {
				got := stageQuanta(t, shape, relay, q, FoldMin, cutStream(s, how, q))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d/relay=%v/%s: folded quanta diverge from the reference\n got %v\nwant %v",
						shape.N, shape.M, relay, how, got, want)
				}
			}
		}
	}
}

// TestStartLevelClearsFold: a fold is declared for one level; the next
// StartLevel opens its channels unfolded.
func TestStartLevelClearsFold(t *testing.T) {
	net := mustNetwork(t, Config{Nodes: 1})
	defer net.Close()
	ep := NewDirectEndpoint(net, 0)
	ep.StartLevel(0, ChanForward)
	ep.FoldBatches(ChanForward, FoldMin)
	ep.StartLevel(1, ChanForward)
	if err := ep.SendMany(ChanForward, []DstRun{{Dst: 0, N: 2}}, []Pair{{1, 9}, {2, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := ep.CloseChannel(ChanForward); err != nil {
		t.Fatal(err)
	}
	if ev := ep.Recv(); ev.Type != EvData || len(ev.Batch.Pairs) != 2 {
		t.Fatalf("level 1 delivered %+v, want both pairs unfolded", ev)
	}
}

// BenchmarkBatchFold is the endpoint's batch fold alone, per pair, at the
// two batch shapes the BFS workloads seal: a 4096-pair quantum of a 16-node
// relay machine keeping ~55 % of its pairs, and a 64-pair residual of a
// 64-node Direct machine keeping ~79 %. Each iteration refills the batch
// from its source (the fold works in place), which the figure includes.
func BenchmarkBatchFold(b *testing.B) {
	for _, c := range []struct {
		name           string
		n, keys, nodes int
	}{
		{"relay-4096", 4096, 3034, 16},
		{"direct-64", 64, 128, 64},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src := strided(rng, c.n, c.keys, c.nodes, 5)
			work := make([]Pair, c.n)
			var s batchFold
			kept := len(s.fold(FoldMin, append(work[:0], src...)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.fold(FoldMin, append(work[:0], src...))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/pair")
			b.ReportMetric(float64(kept)/float64(c.n), "kept")
		})
	}
}
