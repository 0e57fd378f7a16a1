package comm

import (
	"runtime"
	"sync"
	"testing"

	"swbfs/internal/graph"
	"swbfs/internal/obs"
)

// BenchmarkDeliverEnd is the per-message floor of the transport: one level
// of a 64-node Direct machine that carries nothing but its 64x64 End
// markers, flight recorder attached as in every real run — deliver, inbox,
// Recv, nothing else. One goroutine plays every node (all markers are
// queued before the first Recv), so the figure is the uncontended cost.
func BenchmarkDeliverEnd(b *testing.B) {
	const nodes = 64
	net, err := NewNetwork(Config{Nodes: nodes, SuperNodeSize: 8, Flight: obs.NewFlightRecorder(0)})
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	eps := make([]*DirectEndpoint, nodes)
	for node := range eps {
		eps[node] = NewDirectEndpoint(net, node)
	}
	level := func(l int) {
		for _, ep := range eps {
			ep.StartLevel(l, ChanForward)
		}
		for _, ep := range eps {
			if err := ep.CloseChannel(ChanForward); err != nil {
				b.Fatal(err)
			}
		}
		for _, ep := range eps {
			if ev := ep.Recv(); ev.Type != EvChannelClosed {
				b.Fatalf("node %d: %+v", ep.Node(), ev)
			}
		}
	}
	for l := 0; l < 2*obs.DefaultFlightCapacity/(2*nodes); l++ {
		level(l) // warm up: connections made, rings wrapped, queues grown
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		level(1000 + i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	msgs := float64(b.N) * nodes * nodes
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/msgs, "allocs/msg")
}

// BenchmarkDirectSendManyInterleaved is BenchmarkRelaySendManyInterleaved's
// stream on a 64-node Direct machine: 1 Mi pairs whose destinations cycle
// through every node, so every run has length 1 and each destination fills
// exactly four quanta a level. The 64 inboxes are drained raw, which leaves
// SendMany, staging, drain and deliver as the measured work.
func BenchmarkDirectSendManyInterleaved(b *testing.B) {
	const pairs, nodes = 1 << 20, 64
	net, err := NewNetwork(Config{Nodes: nodes, SuperNodeSize: 8})
	if err != nil {
		b.Fatal(err)
	}
	ep := NewDirectEndpoint(net, 0)
	var consumers sync.WaitGroup
	for _, in := range net.inboxes {
		consumers.Add(1)
		go func(in *Inbox) {
			defer consumers.Done()
			for {
				batch, ok := in.Pop()
				if !ok {
					return
				}
				PutPairs(batch.Pairs)
			}
		}(in)
	}
	var chunk Stage
	for i := 0; i < StageCapPairs; i++ {
		chunk.Add(i%nodes, Pair{graph.Vertex(i), graph.Vertex(i)})
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

// BenchmarkDirectCloseChannel is a busy level's close on a 64-node Direct
// machine: node 0 has one pair staged for each of its 63 peers, so
// CloseChannel seals 63 residual batches, each carrying its End, and sends
// a bare End only to itself (a loopback). The 64 inboxes are drained raw.
// ns/close is one level of it (StartLevel, SendMany, CloseChannel),
// msgs/close the network messages the close sent.
func BenchmarkDirectCloseChannel(b *testing.B) {
	const nodes = 64
	net, err := NewNetwork(Config{Nodes: nodes, SuperNodeSize: 8})
	if err != nil {
		b.Fatal(err)
	}
	ep := NewDirectEndpoint(net, 0)
	var consumers sync.WaitGroup
	for _, in := range net.inboxes {
		consumers.Add(1)
		go func(in *Inbox) {
			defer consumers.Done()
			for {
				batch, ok := in.Pop()
				if !ok {
					return
				}
				PutPairs(batch.Pairs)
			}
		}(in)
	}
	var stage Stage
	for dst := 1; dst < nodes; dst++ {
		stage.Add(dst, Pair{graph.Vertex(dst), graph.Vertex(dst)})
	}
	msgs0, _ := net.NodeSent(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep.StartLevel(i, ChanForward)
		if err := ep.SendMany(ChanForward, stage.Runs, stage.Pairs); err != nil {
			b.Fatal(err)
		}
		if err := ep.CloseChannel(ChanForward); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	msgs, _ := net.NodeSent(0)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/close")
	b.ReportMetric(float64(msgs-msgs0)/float64(b.N), "msgs/close")
	net.Close()
	consumers.Wait()
}

// BenchmarkInboxPushPop is the inbox hand-off alone, in the shape of the
// repo benchmark's comm.inbox probe: two producers, one consumer, empty
// batches. ns/op is per batch.
func BenchmarkInboxPushPop(b *testing.B) {
	in := NewInbox()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		n := b.N / 2
		if p == 0 {
			n = b.N - n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				in.Push(Batch{Kind: KindData})
			}
		}()
	}
	for i := 0; i < b.N; i++ {
		in.Pop()
	}
	wg.Wait()
}
