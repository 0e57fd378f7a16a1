package comm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"swbfs/internal/fabric"
	"swbfs/internal/graph"
)

func TestInboxFIFO(t *testing.T) {
	in := NewInbox()
	for i := 0; i < 200; i++ {
		in.Push(Batch{Src: i})
	}
	if in.Len() != 200 {
		t.Fatalf("Len = %d", in.Len())
	}
	for i := 0; i < 200; i++ {
		b, ok := in.Pop()
		if !ok || b.Src != i {
			t.Fatalf("pop %d = (%v, %v)", i, b.Src, ok)
		}
	}
	in.Close()
	if _, ok := in.Pop(); ok {
		t.Fatal("pop after close+drain succeeded")
	}
}

func TestInboxBlockingPop(t *testing.T) {
	in := NewInbox()
	done := make(chan Batch)
	go func() {
		b, _ := in.Pop()
		done <- b
	}()
	in.Push(Batch{Src: 42})
	if b := <-done; b.Src != 42 {
		t.Fatalf("blocked pop got %d", b.Src)
	}
}

func TestInboxPushAfterCloseDrops(t *testing.T) {
	in := NewInbox()
	in.Close()
	in.Push(Batch{Src: 1}) // must not panic, must not enqueue
	if in.Len() != 0 {
		t.Fatal("push after close enqueued")
	}
	if _, ok := in.Pop(); ok {
		t.Fatal("pop returned a dropped batch")
	}
}

func TestBatchByteSize(t *testing.T) {
	b := Batch{Pairs: make([]Pair, 3)}
	if b.ByteSize() != batchHeaderBytes+3*PairBytes {
		t.Fatalf("ByteSize = %d", b.ByteSize())
	}
	env := Batch{Kind: KindRelayData, Inner: []Batch{
		{Pairs: make([]Pair, 2)},
		{Pairs: make([]Pair, 1)},
	}}
	want := int64(batchHeaderBytes) + (batchHeaderBytes + 2*PairBytes) + (batchHeaderBytes + PairBytes)
	if env.ByteSize() != want {
		t.Fatalf("envelope ByteSize = %d, want %d", env.ByteSize(), want)
	}
}

func TestGroupShape(t *testing.T) {
	s, err := NewGroupShape(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.M != 4 || s.Nodes() != 12 {
		t.Fatalf("shape = %+v", s)
	}
	if s.MessagesPerNode() != 3+4-1 {
		t.Fatalf("MessagesPerNode = %d", s.MessagesPerNode())
	}
	if _, err := NewGroupShape(10, 4); err == nil {
		t.Fatal("non-divisible shape accepted")
	}
	if _, err := NewGroupShape(10, 0); err == nil {
		t.Fatal("zero group accepted")
	}
}

// Property: the relay of (src, dst) is in dst's row and src's column
// (Figure 7), and self-relay happens exactly when src is already placed
// right for dst.
func TestRelayPlacementProperty(t *testing.T) {
	f := func(nSeed, mSeed uint8, a, b uint16) bool {
		n := int(nSeed)%8 + 1
		m := int(mSeed)%8 + 1
		s := GroupShape{N: n, M: m}
		src := int(a) % s.Nodes()
		dst := int(b) % s.Nodes()
		relay := s.Relay(src, dst)
		return s.Row(relay) == s.Row(dst) && s.Col(relay) == s.Col(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultGroupShape(t *testing.T) {
	s := DefaultGroupShape(1024, 256)
	if s.M != 256 || s.N != 4 {
		t.Fatalf("1024/256 shape = %+v", s)
	}
	s = DefaultGroupShape(64, 16)
	if s.M != 16 || s.N != 4 {
		t.Fatalf("64/16 shape = %+v", s)
	}
	// Prime count degenerates gracefully.
	s = DefaultGroupShape(13, 4)
	if s.Nodes() != 13 {
		t.Fatalf("13-node shape = %+v", s)
	}
	// The real machine: paper arithmetic "(200 + 200 - 1) * 100 KB ~= 40 MB".
	s = DefaultGroupShape(40000, 200)
	if s.N != 200 || s.M != 200 || s.MessagesPerNode() != 399 {
		t.Fatalf("40000-node shape = %+v", s)
	}
}

// exchange runs a full one-level exchange over the given endpoints: every
// node sends `per` random pairs to random destinations on ChanForward, one
// call per destination in ascending order, then closes the channel and
// receives until closure. What each node sends is a function of the seed,
// so two exchanges with one seed put the same batches on the wire. It
// returns sent and received pair multisets keyed by destination, or the
// first error.
func exchange(t *testing.T, net *Network, eps []Endpoint, per int, seed int64) (sent, got map[int]map[Pair]int, err error) {
	t.Helper()
	p := len(eps)
	sent = make(map[int]map[Pair]int)
	got = make(map[int]map[Pair]int)
	for i := 0; i < p; i++ {
		sent[i] = make(map[Pair]int)
		got[i] = make(map[Pair]int)
	}
	var mu sync.Mutex
	var firstErr error
	fail := func(e error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = e
		}
		mu.Unlock()
		// Tear the job down so peers blocked on Recv observe the crash
		// instead of waiting for end markers that will never come.
		net.Close()
	}

	var wg sync.WaitGroup
	for node := 0; node < p; node++ {
		ep := eps[node]
		ep.StartLevel(0, ChanForward)
		wg.Add(1)
		go func(node int) { // sender
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(node)))
			local := make([][]Pair, p)
			for i := 0; i < per; i++ {
				dst := rng.Intn(p)
				// Realistic vertex IDs (graph-sized, not 63-bit noise) so
				// codec tests see BFS-like payloads.
				pair := Pair{graph.Vertex(rng.Int63n(1 << 22)), graph.Vertex(rng.Int63n(1 << 22))}
				local[dst] = append(local[dst], pair)
			}
			for dst, pairs := range local {
				if len(pairs) == 0 {
					continue
				}
				if err := sendTo(ep, ChanForward, dst, pairs...); err != nil {
					fail(err)
					return
				}
				mu.Lock()
				for _, pr := range pairs {
					sent[dst][pr]++
				}
				mu.Unlock()
			}
			if err := ep.CloseChannel(ChanForward); err != nil {
				fail(err)
			}
		}(node)
		wg.Add(1)
		go func(node int) { // receiver
			defer wg.Done()
			for {
				ev := ep.Recv()
				switch ev.Type {
				case EvData:
					mu.Lock()
					for _, pr := range ev.Batch.Pairs {
						got[node][pr]++
					}
					mu.Unlock()
				case EvChannelClosed:
					return
				case EvError:
					fail(ev.Err)
					return
				}
			}
		}(node)
	}
	wg.Wait()
	return sent, got, firstErr
}

// sendTo queues pairs for one destination: the single-run SendMany the
// tests use where the engines stage whole streams.
func sendTo(ep Endpoint, ch Channel, dst int, pairs ...Pair) error {
	return ep.SendMany(ch, []DstRun{{Dst: dst, N: len(pairs)}}, pairs)
}

func mustNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func compareExchange(t *testing.T, sent, got map[int]map[Pair]int) {
	t.Helper()
	for node, want := range sent {
		if len(got[node]) != len(want) {
			t.Fatalf("node %d: %d distinct pairs, want %d", node, len(got[node]), len(want))
		}
		for pr, n := range want {
			if got[node][pr] != n {
				t.Fatalf("node %d pair %v: got %d, want %d", node, pr, got[node][pr], n)
			}
		}
	}
}

func TestDirectExchange(t *testing.T) {
	net := mustNetwork(t, Config{Nodes: 8, SuperNodeSize: 4, BatchBytes: 128})
	eps := make([]Endpoint, 8)
	for i := range eps {
		eps[i] = NewDirectEndpoint(net, i)
	}
	sent, got, err := exchange(t, net, eps, 300, 1)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	compareExchange(t, sent, got)
	// Direct mode: every node talked to every other node (END broadcast).
	for i := 0; i < 8; i++ {
		if c := net.ConnectionCount(i); c != 7 {
			t.Fatalf("node %d has %d connections, want 7", i, c)
		}
	}
	if net.Counters.NetworkMessages() == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestRelayExchange(t *testing.T) {
	shape, err := NewGroupShape(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	net := mustNetwork(t, Config{Nodes: 12, SuperNodeSize: 4, BatchBytes: 128})
	eps := make([]Endpoint, 12)
	for i := range eps {
		ep, err := NewRelayEndpoint(net, i, shape)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	sent, got, err := exchange(t, net, eps, 300, 2)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	compareExchange(t, sent, got)
	// Relay mode: each node talks only to its column (stage one) and its
	// row (stage two): at most N + M - 1 distinct network peers.
	for i := 0; i < 12; i++ {
		if c := net.ConnectionCount(i); c > shape.MessagesPerNode() {
			t.Fatalf("node %d has %d connections, want <= %d", i, c, shape.MessagesPerNode())
		}
	}
}

// TestRelayMatchesDirect: both transports deliver identical multisets for
// identical workloads.
func TestRelayMatchesDirect(t *testing.T) {
	for _, seed := range []int64{3, 4, 5} {
		netD := mustNetwork(t, Config{Nodes: 8, SuperNodeSize: 4, BatchBytes: 256})
		epsD := make([]Endpoint, 8)
		for i := range epsD {
			epsD[i] = NewDirectEndpoint(netD, i)
		}
		sentD, gotD, err := exchange(t, netD, epsD, 200, seed)
		if err != nil {
			t.Fatal(err)
		}

		shape, _ := NewGroupShape(8, 4)
		netR := mustNetwork(t, Config{Nodes: 8, SuperNodeSize: 4, BatchBytes: 256})
		epsR := make([]Endpoint, 8)
		for i := range epsR {
			epsR[i], _ = NewRelayEndpoint(netR, i, shape)
		}
		sentR, gotR, err := exchange(t, netR, epsR, 200, seed)
		if err != nil {
			t.Fatal(err)
		}

		compareExchange(t, sentD, gotD)
		compareExchange(t, sentR, gotR)
		// Same seeds -> same sent multisets -> same received multisets.
		for node := range sentD {
			for pr, n := range sentD[node] {
				if sentR[node][pr] != n {
					t.Fatalf("workloads diverged at node %d", node)
				}
			}
		}
	}
}

func TestDirectConnMemoryExhaustion(t *testing.T) {
	// A tiny budget makes the END broadcast blow the MPI memory — the
	// Figure 11 Direct crash, scaled down.
	net := mustNetwork(t, Config{
		Nodes: 16, SuperNodeSize: 4, MPIMemoryBudget: 4 * MPIConnectionBytes,
	})
	eps := make([]Endpoint, 16)
	for i := range eps {
		eps[i] = NewDirectEndpoint(net, i)
	}
	_, _, err := exchange(t, net, eps, 10, 7)
	var connErr *ErrConnMemory
	if !errors.As(err, &connErr) {
		t.Fatalf("error = %v, want ErrConnMemory", err)
	}
	net.Close()
}

func TestRelaySurvivesSmallBudget(t *testing.T) {
	// The same budget that kills direct messaging is ample under the
	// relay scheme: N + M - 1 = 7 <= ... wait, budget 4 connections.
	// Shape 4x4 -> column(4) + row(4) - 1 = 7 peers; choose budget 8.
	shape, _ := NewGroupShape(16, 4)
	net := mustNetwork(t, Config{
		Nodes: 16, SuperNodeSize: 4, MPIMemoryBudget: 8 * MPIConnectionBytes,
	})
	eps := make([]Endpoint, 16)
	for i := range eps {
		eps[i], _ = NewRelayEndpoint(net, i, shape)
	}
	sent, got, err := exchange(t, net, eps, 50, 8)
	if err != nil {
		t.Fatalf("relay exchange under tight budget: %v", err)
	}
	compareExchange(t, sent, got)
}

func TestConnectionScaling(t *testing.T) {
	// Section 4.4 arithmetic at full machine scale: 40,000 nodes, 100 KB
	// per connection. Direct: ~4 GB; relay with 200x200 groups: ~40 MB.
	const nodes = 40000
	direct := int64(nodes) * MPIConnectionBytes
	if direct != 4_096_000_000 {
		t.Fatalf("direct MPI memory = %d, want ~4 GB", direct)
	}
	shape := GroupShape{N: 200, M: 200}
	relay := int64(shape.MessagesPerNode()) * MPIConnectionBytes
	if relay != 399*100<<10 {
		t.Fatalf("relay MPI memory = %d", relay)
	}
	if relay > 41<<20 {
		t.Fatalf("relay MPI memory %d exceeds ~40 MB", relay)
	}
	if direct/relay < 100 {
		t.Fatal("relay should reduce MPI memory by ~100x")
	}
}

func TestCollectives(t *testing.T) {
	net := mustNetwork(t, Config{Nodes: 6, SuperNodeSize: 3})
	var wg sync.WaitGroup
	sums := make([]int64, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = net.AllreduceSum(int64(i + 1))
		}(i)
	}
	wg.Wait()
	for i, s := range sums {
		if s != 21 {
			t.Fatalf("node %d allreduce = %d, want 21", i, s)
		}
	}
	if net.Counters.CollectiveOps() != 1 {
		t.Fatalf("collective ops = %d", net.Counters.CollectiveOps())
	}

	// OR-allgather with one empty-optimized contributor.
	results := make([][]uint64, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var words []uint64
			if i != 3 { // node 3 has an empty hub frontier
				words = []uint64{1 << uint(i), 0}
			}
			r, err := net.AllgatherOr(words, true)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	want := uint64(1 | 2 | 4 | 16 | 32)
	for i, r := range results {
		if len(r) != 2 || r[0] != want || r[1] != 0 {
			t.Fatalf("node %d allgather = %v", i, r)
		}
	}
}

func TestAllgatherEmptyFlagSavesTraffic(t *testing.T) {
	run := func(empty bool) int64 {
		net := mustNetwork(t, Config{Nodes: 4, SuperNodeSize: 2})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var words []uint64
				if !empty {
					words = make([]uint64, 64) // a 4 Kbit hub bitmap
				}
				if _, err := net.AllgatherOr(words, true); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		return net.Counters.CollectiveBytes()
	}
	full := run(false)
	flag := run(true)
	if flag*100 > full {
		t.Fatalf("empty-flag traffic %d should be <1%% of bitmap traffic %d", flag, full)
	}
}

func TestCollectivesReusable(t *testing.T) {
	// Generations must not bleed into each other across repeated calls.
	net := mustNetwork(t, Config{Nodes: 3, SuperNodeSize: 3})
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				got := net.AllreduceSum(int64(round))
				if got != int64(3*round) {
					errs <- errorsNew(i, round, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func errorsNew(node, round int, got int64) error {
	return &roundError{node: node, round: round, got: got}
}

type roundError struct {
	node, round int
	got         int64
}

func (e *roundError) Error() string {
	return "allreduce mismatch"
}

// TestCollectiveTopologyAttribution verifies collectives are recorded
// against the fat-tree topology: a single-node allreduce is pure loopback
// (zero network bytes), and on a multi-super-node topology the per-class
// split preserves the modelled aggregate (16 bytes per node for a tree
// reduce+broadcast) while only wire classes count toward NetworkBytes.
func TestCollectiveTopologyAttribution(t *testing.T) {
	// Single node: the "collective" never leaves the node.
	solo := mustNetwork(t, Config{Nodes: 1})
	solo.AllreduceSum(7)
	if got := solo.Counters.NetworkBytes(); got != 0 {
		t.Fatalf("single-node allreduce recorded %d network bytes", got)
	}
	if solo.Counters.CollectiveBytes() != 16 || solo.Counters.CollectiveOps() != 1 {
		t.Fatalf("single-node collective totals: %d B / %d ops",
			solo.Counters.CollectiveBytes(), solo.Counters.CollectiveOps())
	}
	v := []int64{1, 2, 3}
	solo.AllreduceSums(v)
	if got := solo.Counters.Snapshot(); got.NetworkBytes() != 0 || got.Collective[fabric.Loopback] != 16*4 || got.CollectiveOps != 2 {
		t.Fatalf("single-node 3-element allreduce: %v, want all loopback, one op", got)
	}

	// Four nodes in two super nodes {0,1} and {2,3}: tree links 1->0
	// (intra), 2->0 (inter) and 3->1 (inter).
	net := mustNetwork(t, Config{Nodes: 4, SuperNodeSize: 2})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); net.AllreduceSum(1) }()
	}
	wg.Wait()
	c := net.Counters
	if c.CollectiveBytes() != 16*4 {
		t.Fatalf("aggregate collective bytes = %d, want %d", c.CollectiveBytes(), 16*4)
	}
	if c.CollectiveBytesOn(fabric.Loopback) != 16 {
		t.Fatalf("root loopback share = %d, want 16", c.CollectiveBytesOn(fabric.Loopback))
	}
	if c.CollectiveBytesOn(fabric.IntraSuper) != 16 || c.CollectiveBytesOn(fabric.InterSuper) != 32 {
		t.Fatalf("tree split intra=%d inter=%d, want 16/32",
			c.CollectiveBytesOn(fabric.IntraSuper), c.CollectiveBytesOn(fabric.InterSuper))
	}
	if c.NetworkBytes() != 48 {
		t.Fatalf("NetworkBytes = %d, want 48 (excludes loopback share)", c.NetworkBytes())
	}

	// A k-element allreduce: k trees on the same hops, one op.
	scalar := c.Snapshot()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); net.AllreduceSums([]int64{1, 2, 3}) }()
	}
	wg.Wait()
	vec := c.Snapshot().Sub(scalar)
	for class, b := range vec.Collective {
		if want := 3 * scalar.Collective[class]; b != want {
			t.Fatalf("3-element allreduce on class %d = %d B, want %d", class, b, want)
		}
	}
	if vec.CollectiveOps != 1 {
		t.Fatalf("3-element allreduce = %d ops, want 1", vec.CollectiveOps)
	}

	// Allgather: ring distribution preserves payload * (P-1) exactly.
	before := c.Snapshot()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := net.AllgatherOr([]uint64{1}, false); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	delta := c.Snapshot().Sub(before)
	if delta.CollectiveBytes != 4*8*3 {
		t.Fatalf("allgather bytes = %d, want %d", delta.CollectiveBytes, 4*8*3)
	}
	var classSum int64
	for _, b := range delta.Collective {
		classSum += b
	}
	if classSum != delta.CollectiveBytes {
		t.Fatalf("allgather class split %d != total %d", classSum, delta.CollectiveBytes)
	}
}
