package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// Probes time one layer's public functions on the workload's own traffic,
// with no BFS compute around them. They run after the traced ops, inside the
// traced pass.

// stagedChunk is one hand-off from a generator to its endpoint, shaped like
// core's worker stage: at most stageCapPairs pairs in scan order with the
// run-length encoding of their destinations.
type stagedChunk struct {
	runs  []comm.DstRun
	pairs []comm.Pair
}

// stageCapPairs mirrors the generator's hand-off granularity in
// internal/core (one transport quantum at the default batch size).
const stageCapPairs = 4096

// probePairsCap bounds the traffic a probe rebuilds (32 MB of pairs), so
// that the heaviest level of a scale-18 graph does not turn the probe into
// the dominant cost of the traced pass.
const probePairsCap = 2 << 20

// levelTraffic rebuilds the forward traffic of one top-down BFS level from
// outside the engine: every frontier vertex u (level[u] == depth) sends
// (u, v) to the owner of each neighbour v — loopback pairs included, as the
// forward generator routes those through the endpoint too. The result is one
// chunk list per source node, in the generator's scan order. Hub prefetch
// would elide some of these pairs in a real run; the probe keeps them all.
func levelTraffic(g *graph.CSR, part graph.Partition, level []int64, depth int64, capPairs int) [][]stagedChunk {
	out := make([][]stagedChunk, part.Nodes())
	perNode := capPairs / part.Nodes() // an even cut keeps the exchange balanced
	for node := range out {
		total := 0
		var cur stagedChunk
		flush := func() {
			if len(cur.pairs) > 0 {
				out[node] = append(out[node], cur)
				cur = stagedChunk{}
			}
		}
		for local := int64(0); local < part.LocalCount(node) && total < perNode; local++ {
			u := part.Global(node, local)
			if level[u] != depth {
				continue
			}
			for _, v := range g.Neighbors(u) {
				dst := part.Owner(v)
				if n := len(cur.runs); n > 0 && cur.runs[n-1].Dst == dst {
					cur.runs[n-1].N++
				} else {
					cur.runs = append(cur.runs, comm.DstRun{Dst: dst, N: 1})
				}
				cur.pairs = append(cur.pairs, comm.Pair{u, v})
				total++
				if len(cur.pairs) == stageCapPairs {
					flush()
				}
			}
		}
		flush()
	}
	return out
}

// heaviestTopDownLevel picks, among the levels the op really ran top-down,
// the one whose frontier has the most edges. The kernels have no direction;
// their round 0 (every vertex active) plays the part and depth -1 is
// returned.
func heaviestTopDownLevel(m modelled) int64 {
	best, bestEdges := int64(-1), int64(-1)
	for _, l := range m.Levels {
		if l.Direction == core.TopDown.String() && l.FrontierEdges > bestEdges {
			best, bestEdges = int64(l.Level), l.FrontierEdges
		}
	}
	return best
}

// probeComm measures the comm layer on traffic rebuilt from the first op.
func probeComm(inst *instance, first modelled, t *tracer, parent int, lv values) error {
	w := inst.w
	part := graph.NewRoundRobin(inst.g.N, w.Config.Nodes)
	level := inst.refLevels
	depth := heaviestTopDownLevel(first)
	if !w.BFS {
		// Round 0 of WCC: every vertex with an edge sends along all of them.
		level = make([]int64, inst.g.N)
		depth = 0
	}
	traffic := levelTraffic(inst.g, part, level, depth, probePairsCap)

	net, err := comm.NewNetwork(commConfig(w.Config))
	if err != nil {
		return err
	}
	quantum := net.QuantumPairs()
	net.Close()

	probeCodec(traffic, w.Config.Nodes, quantum, t, parent, lv)
	if err := probeExchange(w.Config, traffic, t, parent, lv); err != nil {
		return err
	}
	probeInbox(t, parent, lv)
	probeCollectives(w.Config, inst.g.N, t, parent, lv)
	return nil
}

func commConfig(c core.Config) comm.Config {
	return comm.Config{
		Nodes:           c.Nodes,
		SuperNodeSize:   c.SuperNodeSize,
		BatchBytes:      c.BatchBytes,
		MPIMemoryBudget: c.MPIMemoryBudget,
		Codec:           c.Codec,
		CodecBackward:   c.CodecBackward,
	}
}

// wireBatches cuts the traffic into the batches the transport would ship:
// per (source, destination) stream, quanta of `quantum` pairs and a residual.
func wireBatches(traffic [][]stagedChunk, nodes, quantum int) [][]comm.Pair {
	var batches [][]comm.Pair
	for _, chunks := range traffic {
		perDst := make([][]comm.Pair, nodes)
		for _, c := range chunks {
			off := 0
			for _, r := range c.runs {
				perDst[r.Dst] = append(perDst[r.Dst], c.pairs[off:off+r.N]...)
				off += r.N
			}
		}
		for _, ps := range perDst {
			for len(ps) > quantum {
				batches = append(batches, ps[:quantum])
				ps = ps[quantum:]
			}
			if len(ps) > 0 {
				batches = append(batches, ps)
			}
		}
	}
	return batches
}

// probeCodec pushes the level's batches through the adaptive payload codec,
// whichever codec the workload itself runs, so the figures say what encoding
// this traffic shape costs and saves.
func probeCodec(traffic [][]stagedChunk, nodes, quantum int, t *tracer, parent int, lv values) {
	batches := wireBatches(traffic, nodes, quantum)
	var codec comm.PayloadCodec = comm.AdaptiveCodec{}
	var pairs int
	for _, b := range batches {
		pairs += len(b)
	}
	arena := make([]byte, 0, pairs*comm.PairBytes+len(batches))
	ends := make([]int, len(batches))
	enc := t.timed(parent, -1, "comm", "comm.encode", func() {
		for i, b := range batches {
			arena, _ = codec.EncodePayload(arena, comm.ChanForward, b)
			ends[i] = len(arena)
		}
	})
	scratch := make([]comm.Pair, 0, quantum)
	decoded := 0
	dec := t.timed(parent, -1, "comm", "comm.decode", func() {
		start := 0
		for _, end := range ends {
			out, err := codec.DecodePayload(scratch[:0], arena[start:end])
			if err == nil {
				decoded += len(out)
			}
			start = end
		}
	})
	if decoded != pairs {
		lv["comm.decode_ns_per_pair"] = 0 // a decode failure must not read as a fast decode
		return
	}
	lv["comm.encode_ns_per_pair"] = ratio(float64(enc.Nanoseconds()), float64(pairs))
	lv["comm.decode_ns_per_pair"] = ratio(float64(dec.Nanoseconds()), float64(pairs))
	lv["comm.encoded_bytes_per_pair"] = ratio(float64(len(arena)), float64(pairs))
}

// exchangeRepeats fresh networks carry the same traffic; the median is
// reported.
const exchangeRepeats = 5

// probeExchange ships the level's traffic through a fresh Network and the
// workload's own endpoints — SendMany, CloseChannel, Recv until the channel
// closes — with nothing but a pair count on the receiving side.
func probeExchange(cfg core.Config, traffic [][]stagedChunk, t *tracer, parent int, lv values) error {
	var sent int64
	for _, chunks := range traffic {
		for _, c := range chunks {
			sent += int64(len(c.pairs))
		}
	}
	var nsPerPair, allocsPerPair []float64
	var msgs int64
	for rep := 0; rep < exchangeRepeats; rep++ {
		net, err := comm.NewNetwork(commConfig(cfg))
		if err != nil {
			return err
		}
		eps := make([]comm.Endpoint, cfg.Nodes)
		for node := range eps {
			if cfg.Transport == core.TransportRelay {
				shape := comm.DefaultGroupShape(cfg.Nodes, cfg.SuperNodeSize)
				if eps[node], err = comm.NewRelayEndpoint(net, node, shape); err != nil {
					return err
				}
			} else {
				eps[node] = comm.NewDirectEndpoint(net, node)
			}
		}
		received := make([]int64, cfg.Nodes)
		errs := make([]error, cfg.Nodes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := t.timed(parent, -1, "comm", "comm.exchange", func() {
			var wg sync.WaitGroup
			for node := range eps {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					received[node], errs[node] = exchangeNode(net, eps[node], traffic[node])
				}(node)
			}
			wg.Wait()
		})
		runtime.ReadMemStats(&after)
		msgs = net.Counters.NetworkMessages()
		net.Close()
		var got int64
		for node, err := range errs {
			if err != nil {
				return fmt.Errorf("node %d: %w", node, err)
			}
			got += received[node]
		}
		if got != sent {
			return fmt.Errorf("exchange delivered %d of %d pairs", got, sent)
		}
		nsPerPair = append(nsPerPair, ratio(float64(d.Nanoseconds()), float64(sent)))
		allocsPerPair = append(allocsPerPair, ratio(float64(after.Mallocs-before.Mallocs), float64(sent)))
	}
	lv["comm.exchange_ns_per_pair"] = median(nsPerPair)
	lv["comm.exchange_allocs_per_pair"] = median(allocsPerPair)
	lv["comm.exchange_msgs"] = float64(msgs)
	return nil
}

// exchangeNode plays one node of the exchange the way a BFS level drives its
// endpoint: a sender goroutine (the generator's place) and the receive loop
// (the handler's), joined when the channel closes.
func exchangeNode(net *comm.Network, ep comm.Endpoint, chunks []stagedChunk) (int64, error) {
	ep.StartLevel(0, comm.ChanForward)
	net.Barrier()
	sendErr := make(chan error, 1)
	go func() {
		for _, c := range chunks {
			if err := ep.SendMany(comm.ChanForward, c.runs, c.pairs); err != nil {
				net.Abort()
				sendErr <- err
				return
			}
		}
		err := ep.CloseChannel(comm.ChanForward)
		if err != nil {
			net.Abort()
		}
		sendErr <- err
	}()
	var received int64
	var recvErr error
recv:
	for {
		switch ev := ep.Recv(); ev.Type {
		case comm.EvData:
			received += int64(len(ev.Batch.Pairs))
			comm.PutPairs(ev.Batch.Pairs)
		case comm.EvChannelClosed:
			break recv
		case comm.EvError:
			net.Abort()
			recvErr = ev.Err
			break recv
		}
	}
	if err := <-sendErr; err != nil {
		return received, err
	}
	return received, recvErr
}

// probeInbox times the inbox hand-off alone: two producers, one consumer,
// empty batches.
func probeInbox(t *tracer, parent int, lv values) {
	const perProducer = 100_000
	in := comm.NewInbox()
	d := t.timed(parent, -1, "comm", "comm.inbox", func() {
		var wg sync.WaitGroup
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					in.Push(comm.Batch{Kind: comm.KindData})
				}
			}()
		}
		for i := 0; i < 2*perProducer; i++ {
			in.Pop()
		}
		wg.Wait()
	})
	in.Close()
	lv["comm.inbox_ns_per_batch"] = float64(d.Nanoseconds()) / (2 * perProducer)
}

// probeCollectives times the blocking collectives with every node goroutine
// of the workload's machine taking part, as they do between BFS levels. The
// allgather carries a bitmap the size of the machine's bottom-up hub set.
func probeCollectives(cfg core.Config, vertices int64, t *tracer, parent int, lv values) {
	net, err := comm.NewNetwork(commConfig(cfg))
	if err != nil {
		return
	}
	defer net.Close()
	// core sizes the hub set as the per-node default times the node count,
	// capped at a sixteenth of the vertices.
	hubs := min(int64(core.DefaultHubsBottomUp)*int64(cfg.Nodes), vertices/16)
	words := make([]uint64, (max(hubs, 1)+63)/64)

	all := func(fn func(node int)) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for node := 0; node < cfg.Nodes; node++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				fn(node)
			}(node)
		}
		wg.Wait()
		return time.Since(start)
	}

	const reduces, gathers = 2000, 500
	start := time.Now()
	d := all(func(node int) {
		for i := 0; i < reduces; i++ {
			net.AllreduceSum(int64(node))
		}
	})
	t.add(parent, -1, "comm", "comm.allreduce", start, start.Add(d), map[string]int64{"ops": reduces})
	lv["comm.allreduce_us"] = d.Seconds() * 1e6 / reduces

	start = time.Now()
	d = all(func(node int) {
		for i := 0; i < gathers; i++ {
			_, _ = net.AllgatherOr(words, true) // equal lengths: cannot fail
		}
	})
	t.add(parent, -1, "comm", "comm.allgather", start, start.Add(d), map[string]int64{"ops": gathers})
	lv["comm.allgather_us"] = d.Seconds() * 1e6 / gathers
}

// ckptRoots is how many roots the checkpoint probe runs with and without
// level-boundary capture.
const ckptRoots = 8

// probeCheckpoint measures what level-boundary capture adds to a BFS (a twin
// runner with CheckpointEvery=1 against the plain one, alternating), then the
// codec on the last captured checkpoint.
func probeCheckpoint(inst *instance, ops int, t *tracer, parent int, lv values) error {
	cfg := inst.w.Config
	cfg.CheckpointEvery = 1
	twin, err := core.NewRunner(cfg, inst.g)
	if err != nil {
		return err
	}
	var plainNs, captureNs float64
	span := t.open(parent, -1, "ckpt", "ckpt.capture", time.Now())
	for i := 0; i < min(ckptRoots, ops); i++ {
		root := inst.roots[i]
		for _, side := range []struct {
			r   *core.Runner
			sum *float64
		}{{inst.runner, &plainNs}, {twin, &captureNs}} {
			start := time.Now()
			if _, err := side.r.Run(root); err != nil {
				return err
			}
			*side.sum += float64(time.Since(start).Nanoseconds())
		}
	}
	t.finish(span, time.Now())
	lv["ckpt.capture_overhead_pct"] = (ratio(captureNs, plainNs) - 1) * 100

	c := twin.LastCheckpoint()
	if c == nil {
		return fmt.Errorf("no checkpoint captured")
	}
	var data []byte
	d := t.timed(parent, -1, "ckpt", "ckpt.encode", func() { data, err = ckpt.Encode(c) })
	if err != nil {
		return err
	}
	lv["ckpt.encode_ms"] = d.Seconds() * 1e3
	lv["ckpt.bytes"] = float64(len(data))
	d = t.timed(parent, -1, "ckpt", "ckpt.read", func() { _, err = ckpt.Read(bytes.NewReader(data)) })
	if err != nil {
		return err
	}
	lv["ckpt.read_ms"] = d.Seconds() * 1e3
	return nil
}
