package comm

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"swbfs/internal/graph"
)

// drainReference is the map-based quantum drain the dense one replaced,
// kept verbatim as the oracle: per-destination counts and buffers in two
// maps, destinations sorted before the inner batches are emitted.
func drainReference(g *groupStage, n int, src, level int, ch Channel) []Batch {
	counts := make(map[int]int)
	rh, ro, left := g.runHead, g.runOff, n
	for left > 0 {
		r := g.runs[rh]
		take := min(r.N-ro, left)
		counts[r.Dst] += take
		left -= take
		ro += take
		if ro == r.N {
			rh++
			ro = 0
		}
	}
	bufs := make(map[int][]Pair, len(counts))
	for dst, c := range counts {
		bufs[dst] = GetPairs(c)[:0]
	}
	left = n
	for left > 0 {
		r := &g.runs[g.runHead]
		take := min(r.N-g.runOff, left)
		bufs[r.Dst] = append(bufs[r.Dst], g.fifo.peek(take)...)
		g.fifo.advance(take)
		left -= take
		g.runOff += take
		if g.runOff == r.N {
			g.runHead++
			g.runOff = 0
		}
	}
	g.total -= n
	if g.runHead == len(g.runs) {
		g.runs = g.runs[:0]
		g.runHead = 0
	} else if g.runHead > 64 && g.runHead*2 >= len(g.runs) {
		m := copy(g.runs, g.runs[g.runHead:])
		g.runs = g.runs[:m]
		g.runHead = 0
	}
	dsts := make([]int, 0, len(bufs))
	for dst := range bufs {
		dsts = append(dsts, dst)
	}
	sort.Ints(dsts)
	inner := make([]Batch, 0, len(dsts))
	for _, dst := range dsts {
		inner = append(inner, Batch{
			Kind: KindData, Channel: ch, Src: src, Dst: dst, Level: level, Pairs: bufs[dst],
		})
	}
	return inner
}

// TestDrainDenseMatchesReference feeds identical random run streams to the
// dense drain and the map-based oracle, group by group on square, non-square
// and degenerate shapes, and requires identical inner batches from every
// quantum and from the residual drain: destinations ascending, each
// destination's pairs in arrival order, pair for pair. The streams mix
// run-length-1 traffic with runs that straddle quantum boundaries, and every
// phase leaves one group member silent so quanta miss a destination.
func TestDrainDenseMatchesReference(t *testing.T) {
	for _, shape := range []GroupShape{{N: 2, M: 2}, {N: 3, M: 2}, {N: 1, M: 4}, {N: 4, M: 1}} {
		for _, q := range []int{8, 64} {
			for group := 0; group < shape.N; group++ {
				rng := rand.New(rand.NewSource(int64(shape.N*100 + shape.M*10 + group)))
				dense := newGroupStage(group*shape.M, shape.M)
				var ref groupStage
				next := graph.Vertex(0) // unique payloads make misplaced pairs visible
				check := func(n int) {
					t.Helper()
					got := dense.drain(nil, n, 5, 3, ChanBackward)
					want := drainReference(&ref, n, 5, 3, ChanBackward)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%dx%d q=%d group %d: inner batches diverge\n got %+v\nwant %+v",
							shape.N, shape.M, q, group, got, want)
					}
					for i := 1; i < len(got); i++ {
						if got[i-1].Dst >= got[i].Dst {
							t.Fatalf("destinations not ascending: %d before %d", got[i-1].Dst, got[i].Dst)
						}
					}
					for col := range dense.counts {
						if dense.counts[col] != 0 || dense.bufs[col] != nil {
							t.Fatalf("drain left scratch behind for column %d", col)
						}
					}
				}
				for phase := 0; phase < 40; phase++ {
					silent := -1
					if shape.M > 1 {
						silent = rng.Intn(shape.M)
					}
					for step := 0; step < 50; step++ {
						col := rng.Intn(shape.M)
						if col == silent {
							continue
						}
						n := 1
						switch rng.Intn(10) {
						case 0:
							n = q + rng.Intn(2*q) // straddles at least one boundary
						case 1, 2:
							n = 2 + rng.Intn(q/2)
						}
						ps := make([]Pair, n)
						for i := range ps {
							ps[i] = Pair{next, next + 1}
							next += 2
						}
						dense.push(group*shape.M+col, ps)
						ref.push(group*shape.M+col, ps)
						for dense.total >= q {
							check(q)
						}
					}
				}
				if dense.total > 0 {
					check(dense.total)
				}
				if ref.total != 0 || dense.total != 0 {
					t.Fatalf("stages not empty after the residual drain: %d / %d", dense.total, ref.total)
				}
			}
		}
	}
}

// BenchmarkRelaySendManyInterleaved times relay stage one on the stream
// round-robin vertex ownership produces: 1 Mi pairs whose destinations cycle
// through all 16 nodes of a 4x4 machine, so every run has length 1 and
// every quantum drain regroups 4096 single-pair runs. The relays' inboxes
// are drained raw (no stage two), which keeps the pair pool in steady state
// and leaves SendMany, push, drain and deliver as the measured work.
func BenchmarkRelaySendManyInterleaved(b *testing.B) {
	const pairs = 1 << 20
	shape := GroupShape{N: 4, M: 4}
	net, err := NewNetwork(Config{Nodes: shape.Nodes(), SuperNodeSize: shape.M})
	if err != nil {
		b.Fatal(err)
	}
	ep, err := NewRelayEndpoint(net, 0, shape)
	if err != nil {
		b.Fatal(err)
	}
	var consumers sync.WaitGroup
	for row := 0; row < shape.N; row++ {
		consumers.Add(1)
		go func(relay int) {
			defer consumers.Done()
			for {
				env, ok := net.inboxes[relay].Pop()
				if !ok {
					return
				}
				for _, in := range env.Inner {
					PutPairs(in.Pairs)
				}
			}
		}(shape.Relay(0, row*shape.M))
	}
	var chunk Stage
	for i := 0; i < StageCapPairs; i++ {
		chunk.Add(i%shape.Nodes(), Pair{graph.Vertex(i), graph.Vertex(i)})
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep.StartLevel(i, ChanForward)
		for sent := 0; sent < pairs; sent += StageCapPairs {
			if err := ep.SendMany(ChanForward, chunk.Runs, chunk.Pairs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * pairs
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/pair")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/pair")
	net.Close()
	consumers.Wait()
}
