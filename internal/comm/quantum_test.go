package comm

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"swbfs/internal/graph"
)

// cut is one destination's share of a quantum: an inner batch's route and
// payload, or a Direct batch's.
type cut struct {
	Dst   int
	Pairs []Pair
}

// referenceQuanta is the send-side quantum rule written out: per
// destination group of `members` consecutive nodes, the group's pairs in
// arrival order are cut every q pairs (the last cut holds the rest), and
// each cut splits by ascending destination, every destination's pairs in
// arrival order. It returns each group's quanta in the order they ship.
func referenceQuanta(dsts []int, pairs []Pair, members, q int) map[int][][]cut {
	arrived := map[int][]int{} // group -> indices of its pairs, in arrival order
	for i, dst := range dsts {
		arrived[dst/members] = append(arrived[dst/members], i)
	}
	quanta := map[int][][]cut{}
	for g, idx := range arrived {
		for len(idx) > 0 {
			n := min(q, len(idx))
			byDst := map[int][]Pair{}
			for _, i := range idx[:n] {
				byDst[dsts[i]] = append(byDst[dsts[i]], pairs[i])
			}
			var quantum []cut
			for dst := g * members; dst < (g+1)*members; dst++ {
				if ps := byDst[dst]; len(ps) > 0 {
					quantum = append(quantum, cut{dst, ps})
				}
			}
			quanta[g] = append(quanta[g], quantum)
			idx = idx[n:]
		}
	}
	return quanta
}

// quantumStream is one sender's stream over every node of the shape: 40
// phases, each leaving one member of every group silent so quanta miss a
// destination, of mostly single-pair runs, some runs of a few pairs and some
// that straddle at least one quantum boundary. Payloads are unique, so a
// misplaced pair is visible.
func quantumStream(shape GroupShape, q int, seed int64) Stage {
	rng := rand.New(rand.NewSource(seed))
	next := graph.Vertex(0)
	var s Stage
	for phase := 0; phase < 40; phase++ {
		silent := make([]int, shape.N)
		for g := range silent {
			silent[g] = -1
			if shape.M > 1 {
				silent[g] = g*shape.M + rng.Intn(shape.M)
			}
		}
		for step := 0; step < 50; step++ {
			dst := rng.Intn(shape.Nodes())
			if dst == silent[shape.Row(dst)] {
				continue
			}
			n := 1
			switch rng.Intn(10) {
			case 0:
				n = q + rng.Intn(2*q)
			case 1, 2:
				n = 2 + rng.Intn(q/2)
			}
			for i := 0; i < n; i++ {
				s.Add(dst, Pair{next, next + 1})
				next += 2
			}
		}
	}
	return s
}

// popUntilEnd pops box up to the batch that ends a sender's channel for
// its owner — a bare marker of kind bare, or a batch that carries the End —
// and returns the batches before a bare marker and the carrying one. It
// fails the test if a bare marker claims to carry an End.
func popUntilEnd(t *testing.T, box *Inbox, bare Kind) []Batch {
	t.Helper()
	var got []Batch
	for {
		b, ok := box.Pop()
		if !ok {
			t.Fatal("inbox closed before the End")
		}
		if b.Kind == bare {
			if b.End {
				t.Fatalf("bare %s batch %+v carries an End", bare, b)
			}
			return got
		}
		if got = append(got, b); b.End {
			return got
		}
	}
}

// stageQuanta drives one sender through StartLevel, FoldBatches (when f is
// a fold), SendMany and CloseChannel and reads what reached the wire, per
// destination group:
// under Direct every data batch is a one-destination quantum; under Relay
// every stage-one envelope at the group's relay is one, its inner batches
// the quantum's cuts. It also checks the routing fields and that the
// end-of-channel marker is the last thing each group gets: carried by the
// group's residual quantum when it has one, bare otherwise.
func stageQuanta(t *testing.T, shape GroupShape, relay bool, q int, f Fold, calls []Stage) map[int][][]cut {
	t.Helper()
	const level = 5
	net := mustNetwork(t, Config{Nodes: shape.Nodes(), SuperNodeSize: shape.M, BatchBytes: int64(q) * PairBytes})
	defer net.Close()
	src := shape.Nodes() - 1
	var ep Endpoint = NewDirectEndpoint(net, src)
	members := 1
	if relay {
		var err error
		if ep, err = NewRelayEndpoint(net, src, shape); err != nil {
			t.Fatal(err)
		}
		members = shape.M
	}
	ep.StartLevel(level, ChanBackward)
	if f != 0 {
		ep.FoldBatches(ChanBackward, f)
	}
	for _, st := range calls {
		if err := ep.SendMany(ChanBackward, st.Runs, st.Pairs); err != nil {
			t.Fatal(err)
		}
	}
	if err := ep.CloseChannel(ChanBackward); err != nil {
		t.Fatal(err)
	}
	got := map[int][][]cut{}
	for g := 0; g < shape.Nodes()/members; g++ {
		box, final := net.inboxes[g], KindEnd
		if relay {
			box, final = net.inboxes[shape.Relay(src, g*members)], KindRelayEnd
		}
		batches := popUntilEnd(t, box, final)
		if box.Len() != 0 {
			t.Fatalf("group %d: %d batches after the End", g, box.Len())
		}
		for _, b := range batches {
			if b.Src != src || b.Level != level || b.Channel != ChanBackward {
				t.Fatalf("group %d: misrouted %s batch %+v", g, b.Kind, b)
			}
			inner := []Batch{b}
			if relay {
				inner = b.Inner
			}
			var quantum []cut
			for _, in := range inner {
				if in.Kind != KindData || in.Src != src || in.Level != level || in.Dst/members != g {
					t.Fatalf("group %d: misrouted inner batch %+v", g, in)
				}
				quantum = append(quantum, cut{in.Dst, in.Pairs})
			}
			got[g] = append(got[g], quantum)
		}
	}
	return got
}

// TestSendQuantaMatchReference holds both transports' send side to
// referenceQuanta through the Endpoint methods alone, on square,
// non-square and degenerate shapes at two quanta, with every stream sent
// as one call, per pair and in random splits: batch boundaries depend on
// the per-group pair sequence, not on how callers cut it.
func TestSendQuantaMatchReference(t *testing.T) {
	for _, shape := range []GroupShape{{N: 2, M: 2}, {N: 3, M: 2}, {N: 1, M: 4}, {N: 4, M: 1}} {
		for _, q := range []int{8, 64} {
			s := quantumStream(shape, q, int64(shape.N*100+shape.M*10+q))
			var dsts []int
			for _, r := range s.Runs {
				for i := 0; i < r.N; i++ {
					dsts = append(dsts, r.Dst)
				}
			}
			for _, relay := range []bool{false, true} {
				members := 1
				if relay {
					members = shape.M
				}
				want := referenceQuanta(dsts, s.Pairs, members, q)
				for _, how := range []string{"one-call", "per-pair", "random-splits"} {
					name := fmt.Sprintf("%dx%d/q=%d/relay=%v/%s", shape.N, shape.M, q, relay, how)
					got := stageQuanta(t, shape, relay, q, 0, cutStream(s, how, int64(q)))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: quanta diverge from the reference\n got %v\nwant %v", name, got, want)
					}
				}
			}
		}
	}
}

// stageTwoInner is one inner batch of a hand-built stage-one envelope: n
// pairs for the relay row's column col.
type stageTwoInner struct{ col, n int }

// stageTwoCase is a sequence of stage-one envelopes for relay 0 of
// stageTwoShape, alternately from the two sources of its column.
type stageTwoCase struct {
	name string
	envs [][]stageTwoInner
}

var stageTwoShape = GroupShape{N: 2, M: 4}

// stageTwoCases put an inner batch below q into an empty open batch and
// into a non-empty one, one of exactly q into either, one above 2q, every
// column, and a seeded mix.
func stageTwoCases(q int) []stageTwoCase {
	rng := rand.New(rand.NewSource(3))
	var mixed [][]stageTwoInner
	for i := 0; i < 30; i++ {
		var env []stageTwoInner
		for col := 0; col < stageTwoShape.M; col++ {
			if rng.Intn(3) > 0 {
				env = append(env, stageTwoInner{col, 1 + rng.Intn(q)})
			}
		}
		mixed = append(mixed, env)
	}
	return []stageTwoCase{
		{"below q into empty", [][]stageTwoInner{{{1, 3}}}},
		{"below q into non-empty", [][]stageTwoInner{{{1, 3}}, {{1, 4}}, {{1, 6}}}},
		{"exactly q into empty", [][]stageTwoInner{{{2, q}}, {{2, q}, {3, 1}}}},
		{"exactly q into non-empty", [][]stageTwoInner{{{2, 5}}, {{2, q}}}},
		{"above 2q into empty", [][]stageTwoInner{{{3, 2*q + 3}}}},
		{"above 2q into non-empty", [][]stageTwoInner{{{3, 2}}, {{3, 2*q + 7}}}},
		{"every column, self included", [][]stageTwoInner{{{0, 5}, {1, 2}, {2, q}, {3, 3 * q}}, {{0, 6}, {2, 1}}}},
		{"mixed", mixed},
	}
}

// TestRelayStageTwoMatchesReference feeds relay 0 of a 2x4 machine
// hand-built stage-one envelopes through Recv and holds every stage-two
// batch to the rule: per destination, the arriving inner batches'
// pairs in arrival order, cut every q pairs, the rest flushed once the
// column's sources are done; each batch from the relay.
func TestRelayStageTwoMatchesReference(t *testing.T) {
	const q, level = 8, 2
	shape := stageTwoShape
	cases := stageTwoCases(q)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := mustNetwork(t, Config{Nodes: shape.Nodes(), SuperNodeSize: shape.M, BatchBytes: q * PairBytes})
			defer net.Close()
			ep, err := NewRelayEndpoint(net, 0, shape)
			if err != nil {
				t.Fatal(err)
			}
			ep.StartLevel(level, ChanForward)
			sources := []int{0, shape.M} // column 0
			arrived := map[int][]Pair{}
			next := graph.Vertex(0)
			for i, env := range c.envs {
				src := sources[i%len(sources)]
				b := Batch{Kind: KindRelayData, Channel: ChanForward, Src: src, Dst: 0, Level: level}
				for _, in := range env {
					ps := make([]Pair, in.n)
					for j := range ps {
						ps[j] = Pair{next, next + 1}
						next += 2
					}
					arrived[in.col] = append(arrived[in.col], ps...)
					b.Inner = append(b.Inner, Batch{Kind: KindData, Channel: ChanForward, Src: src, Dst: in.col, Level: level, Pairs: ps})
				}
				net.inboxes[0].Push(b)
			}
			for _, src := range sources {
				net.inboxes[0].Push(Batch{Kind: KindRelayEnd, Channel: ChanForward, Src: src, Dst: 0, Level: level})
			}
			for relay := 1; relay < shape.M; relay++ { // the rest of the row's relays are done too
				net.inboxes[0].Push(Batch{Kind: KindEnd, Channel: ChanForward, Src: relay, Dst: 0, Level: level})
			}

			got := map[int][][]Pair{}
			record := func(b Batch) {
				if b.Kind != KindData || b.Src != 0 || b.Level != level || b.Channel != ChanForward {
					t.Fatalf("stage-two batch %+v: want level-%d data from the relay", b, level)
				}
				got[b.Dst] = append(got[b.Dst], b.Pairs)
			}
			for ev := ep.Recv(); ev.Type != EvChannelClosed; ev = ep.Recv() {
				if ev.Type != EvData {
					t.Fatalf("relay Recv = %+v", ev)
				}
				record(ev.Batch)
			}
			for dst := 1; dst < shape.M; dst++ {
				for _, b := range popUntilEnd(t, net.inboxes[dst], KindEnd) {
					record(b)
				}
			}

			want := map[int][][]Pair{}
			for col, ps := range arrived {
				for len(ps) > 0 {
					n := min(q, len(ps))
					want[col] = append(want[col], ps[:n])
					ps = ps[n:]
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stage-two batches diverge from the reference\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestRelayStageTwoEncodedMatchesReference is the encoded sibling: on a
// channel that runs a codec, relay 0 of a 2x4 machine gets the same
// envelopes with encoded inner batches ("segments"), in two interleavings
// that keep each source's order — as listed, and the second source's whole
// stream first. Both must ship identical stage-two batches, equal to the
// rule: nothing before the column's last End; then per destination, in
// ascending order, its segments as they arrived, ordered by source (arrival
// order within a source), cut into batches that close once they hold q
// pairs or more. Both interleavings run on one endpoint, so the second
// reuses the segment lists the first left.
func TestRelayStageTwoEncodedMatchesReference(t *testing.T) {
	const q, level = 8, 2
	shape := stageTwoShape
	sources := []int{0, shape.M} // column 0
	for _, c := range stageTwoCases(q) {
		t.Run(c.name, func(t *testing.T) {
			net := mustNetwork(t, Config{Nodes: shape.Nodes(), SuperNodeSize: shape.M, BatchBytes: q * PairBytes,
				Codec: AdaptiveCodec{}})
			defer net.Close()
			ep, err := NewRelayEndpoint(net, 0, shape)
			if err != nil {
				t.Fatal(err)
			}
			// Each source's envelopes in its send order, segments encoded,
			// and all of them as listed.
			streams := map[int][]Batch{}
			var listed, secondFirst []Batch
			next := graph.Vertex(0)
			for i, env := range c.envs {
				src := sources[i%len(sources)]
				b := Batch{Kind: KindRelayData, Channel: ChanForward, Src: src, Dst: 0, Level: level}
				for _, in := range env {
					ps := make([]Pair, in.n)
					for j := range ps {
						ps[j] = Pair{next, next + 1}
						next += 2
					}
					enc, _ := AdaptiveCodec{}.EncodePayload(nil, ChanForward, ps)
					b.Inner = append(b.Inner, Batch{Kind: KindData, Channel: ChanForward, Src: src, Dst: in.col, Level: level,
						Enc: enc, EncN: in.n})
				}
				streams[src] = append(streams[src], b)
				listed = append(listed, b)
			}
			end := func(src int) Batch {
				return Batch{Kind: KindRelayEnd, Channel: ChanForward, Src: src, Dst: 0, Level: level}
			}
			listed = append(listed, end(sources[0]), end(sources[1]))
			secondFirst = append(append(secondFirst, streams[sources[1]]...), end(sources[1]))
			secondFirst = append(append(secondFirst, streams[sources[0]]...), end(sources[0]))

			run := func(arrivals []Batch) map[int][]Batch {
				ep.StartLevel(level, ChanForward)
				for i, b := range arrivals {
					if err := ep.handle(b); err != nil {
						t.Fatal(err)
					}
					if i < len(arrivals)-1 && slices.ContainsFunc(net.inboxes[:shape.M], func(in *Inbox) bool { return in.Len() > 0 }) {
						t.Fatalf("arrival %d: the relay shipped before its column's last End", i)
					}
				}
				got := map[int][]Batch{}
				for dst := 0; dst < shape.M; dst++ {
					for _, b := range popUntilEnd(t, net.inboxes[dst], KindEnd) {
						b.Inner = slices.Clone(b.Inner) // the relay reuses its segment lists next level
						got[dst] = append(got[dst], b)
					}
				}
				return got
			}
			first, second := run(listed), run(secondFirst)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("stage two depends on arrival interleaving\n listed       %v\n second first %v", first, second)
			}

			want := map[int][]Batch{}
			for _, src := range sources {
				for _, env := range streams[src] {
					for _, seg := range env.Inner {
						want[seg.Dst] = append(want[seg.Dst], seg)
					}
				}
			}
			for dst, segs := range want {
				var batches []Batch
				for start, n, i := 0, 0, 0; i < len(segs); i++ {
					if n += segs[i].EncN; n >= q || i == len(segs)-1 {
						batches = append(batches, Batch{Kind: KindData, Channel: ChanForward, Src: 0, Dst: dst, Level: level,
							Inner: segs[start : i+1], End: i == len(segs)-1})
						start, n = i+1, 0
					}
				}
				want[dst] = batches
			}
			if !reflect.DeepEqual(first, want) {
				t.Fatalf("stage-two batches diverge from the reference\n got %v\nwant %v", first, want)
			}
		})
	}
}

// TestConcurrentSendersOnOneChannel: two goroutines call SendMany on one
// endpoint and channel at once, each sealing many quanta, and every pair
// arrives exactly once — the sealed-batch scratch a call takes is never
// shared with the other call. Run under -race by make race.
func TestConcurrentSendersOnOneChannel(t *testing.T) {
	for _, relay := range []bool{false, true} {
		shape := GroupShape{N: 2, M: 2}
		net := mustNetwork(t, Config{Nodes: shape.Nodes(), SuperNodeSize: shape.M, BatchBytes: 8 * PairBytes})
		eps := reuseEndpoints(t, net, relay)
		for _, ep := range eps {
			ep.StartLevel(1, ChanForward)
		}
		sent := map[Pair]int{}
		var senders sync.WaitGroup
		for s := 0; s < 2; s++ {
			var st Stage
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < 3000; i++ {
				p := Pair{graph.Vertex(s), graph.Vertex(i)}
				st.Add(rng.Intn(shape.Nodes()), p)
				sent[p]++
			}
			senders.Add(1)
			go func(calls []Stage) {
				defer senders.Done()
				for _, c := range calls {
					if err := eps[0].SendMany(ChanForward, c.Runs, c.Pairs); err != nil {
						t.Error(err)
						return
					}
				}
			}(cutStream(st, "random-splits", int64(s)))
		}
		senders.Wait()
		got := map[Pair]int{}
		var mu sync.Mutex
		var receivers sync.WaitGroup
		for _, ep := range eps {
			if err := ep.CloseChannel(ChanForward); err != nil {
				t.Fatal(err)
			}
			receivers.Add(1)
			go func(ep Endpoint) {
				defer receivers.Done()
				for ev := ep.Recv(); ev.Type != EvChannelClosed; ev = ep.Recv() {
					if ev.Type != EvData {
						t.Errorf("relay=%v node %d: %+v", relay, ep.Node(), ev)
						return
					}
					mu.Lock()
					for _, p := range ev.Batch.Pairs {
						got[p]++
					}
					mu.Unlock()
				}
			}(ep)
		}
		receivers.Wait()
		net.Close()
		if !reflect.DeepEqual(got, sent) {
			t.Fatalf("relay=%v: %d distinct pairs arrived, want %d, each once", relay, len(got), len(sent))
		}
	}
}

// BenchmarkRelaySendManyInterleaved times relay stage one on the stream
// round-robin vertex ownership produces: 1 Mi pairs whose destinations cycle
// through all 16 nodes of a 4x4 machine, so every run has length 1. The
// relays' inboxes are drained raw (no stage two), which keeps the pair pool
// in steady state and leaves SendMany, staging and deliver as the measured
// work.
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

// BenchmarkRelayStageTwo times relay stage two alone: relay 0 of a 4x4
// machine handles 64 fixed stage-one envelopes a level, each one quantum of
// four inner batches — 1 024 pairs per row member ("even"), or 3 072, 768,
// 192 and 64 ("skewed") — then its column's four end markers. Each inner
// payload is a fresh pooled copy, as a decode leaves it, or ("adaptive",
// the even mix on an AdaptiveCodec channel) as stage one's encode leaves
// it. The row's inboxes are drained raw, encode buffers recycled, and each
// level waits for the drain, as a level barrier would. ns/pair and
// allocs/pair are per relayed pair.
func BenchmarkRelayStageTwo(b *testing.B) {
	even := [4]int{1024, 1024, 1024, 1024}
	for _, mix := range []struct {
		name  string
		sizes [4]int
		codec PayloadCodec
	}{{"even", even, nil}, {"skewed", [4]int{3072, 768, 192, 64}, nil}, {"adaptive", even, AdaptiveCodec{}}} {
		b.Run(mix.name, func(b *testing.B) {
			const envelopes = 64
			shape := GroupShape{N: 4, M: 4}
			net, err := NewNetwork(Config{Nodes: shape.Nodes(), SuperNodeSize: shape.M, Codec: mix.codec})
			if err != nil {
				b.Fatal(err)
			}
			ep, err := NewRelayEndpoint(net, 0, shape)
			if err != nil {
				b.Fatal(err)
			}
			var consumers, drained sync.WaitGroup
			for dst := 0; dst < shape.M; dst++ {
				consumers.Add(1)
				go func(in *Inbox) {
					defer consumers.Done()
					for {
						batch, ok := in.Pop()
						if !ok {
							return
						}
						PutPairs(batch.Pairs)
						for _, seg := range batch.Inner {
							putEncBuf(seg.Enc)
						}
						if batch.Kind == KindEnd || batch.End {
							drained.Done()
						}
					}
				}(net.inboxes[dst])
			}
			var payload [4][]Pair
			var encoded [4][]byte
			perEnvelope := 0
			for col, n := range mix.sizes {
				for i := 0; i < n; i++ {
					payload[col] = append(payload[col], Pair{graph.Vertex(i), graph.Vertex(i*shape.M + col)})
				}
				if mix.codec != nil {
					encoded[col], _ = mix.codec.EncodePayload(nil, ChanForward, payload[col])
				}
				perEnvelope += n
			}
			envelope := func(src, level int) Batch {
				env := Batch{Kind: KindRelayData, Channel: ChanForward, Src: src, Dst: 0, Level: level, Inner: make([]Batch, shape.M)}
				for col := range env.Inner {
					in := Batch{Kind: KindData, Channel: ChanForward, Src: src, Dst: col, Level: level}
					if mix.codec != nil {
						in.Enc, in.EncN = append(getEncBuf(), encoded[col]...), len(payload[col])
					} else {
						in.Pairs = GetPairs(len(payload[col]))
						copy(in.Pairs, payload[col])
					}
					env.Inner[col] = in
				}
				return env
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ep.StartLevel(i, ChanForward)
				drained.Add(shape.M)
				for k := 0; k < envelopes; k++ {
					if err := ep.handle(envelope(k%shape.N*shape.M, i)); err != nil {
						b.Fatal(err)
					}
				}
				for row := 0; row < shape.N; row++ {
					end := Batch{Kind: KindRelayEnd, Channel: ChanForward, Src: row * shape.M, Dst: 0, Level: i}
					if err := ep.handle(end); err != nil {
						b.Fatal(err)
					}
				}
				drained.Wait()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(b.N) * envelopes * float64(perEnvelope)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/pair")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/pair")
			net.Close()
			consumers.Wait()
		})
	}
}
