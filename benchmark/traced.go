package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"swbfs/internal/algos"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/fabric"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// stampedEvent is a live progress event with the host time at which the
// benchmark received it.
type stampedEvent struct {
	ev obs.LiveEvent
	at time.Time
}

// opEndKind marks the sentinel the collector's owner publishes after each
// kernel call, to know that every event of the call has been received.
const opEndKind = "bench-op-end"

// collector subscribes to a ProgressBroker and stamps each event on receipt.
// Level boundaries seen this way are the only view of a level's host time
// that exists outside the engine.
type collector struct {
	broker *obs.ProgressBroker
	cancel func()
	stop   chan struct{}
	done   chan struct{}
	opEnd  chan struct{} // one token per sentinel received

	mu      sync.Mutex
	events  []stampedEvent
	lastSeq int64
	gap     bool  // a Seq gap since the last take
	dropped int64 // events lost to a full subscription buffer
}

// collectorBuffer is far above the events of one op (a level event per level
// or round, plus run start and end), so a drop means the receiver was
// starved, not that the buffer was undersized.
const collectorBuffer = 4096

func newCollector(b *obs.ProgressBroker) *collector {
	ch, cancel := b.Subscribe(collectorBuffer)
	c := &collector{
		broker: b, cancel: cancel,
		stop: make(chan struct{}), done: make(chan struct{}),
		opEnd: make(chan struct{}, collectorBuffer),
	}
	go func() {
		defer close(c.done)
		for {
			select {
			case <-c.stop:
				return
			case ev := <-ch:
				at := time.Now()
				c.mu.Lock()
				if c.lastSeq != 0 && ev.Seq != c.lastSeq+1 {
					c.gap = true
					c.dropped += ev.Seq - c.lastSeq - 1
				}
				c.lastSeq = ev.Seq
				if ev.Kind == obs.EventLevel || ev.Kind == obs.EventRunDone {
					c.events = append(c.events, stampedEvent{ev, at})
				}
				c.mu.Unlock()
				if ev.Kind == opEndKind {
					c.opEnd <- struct{}{}
				}
			}
		}
	}()
	return c
}

// runEvents is the level (or round) events of one engine run and the time its
// run-done event arrived, which closes the last level.
type runEvents struct {
	levels []stampedEvent
	done   time.Time
}

// take returns the events received since the previous take, one entry per
// completed engine run. It first publishes a sentinel and waits for it, so
// every event of the calls that just returned is in. A Seq gap invalidates
// the batch: nil is returned and the loss stays counted in dropped.
func (c *collector) take() []runEvents {
	if c == nil {
		return nil
	}
	c.broker.Publish(obs.LiveEvent{Kind: opEndKind})
	select {
	case <-c.opEnd:
	case <-time.After(2 * time.Second):
		// The sentinel itself was dropped; the gap shows on the next event.
		c.mu.Lock()
		c.gap = true
		c.mu.Unlock()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	events, gap := c.events, c.gap
	c.events, c.gap = nil, false
	if gap {
		return nil
	}
	var runs []runEvents
	var cur runEvents
	for _, e := range events {
		if e.ev.Kind == obs.EventRunDone {
			cur.done = e.at
			runs = append(runs, cur)
			cur = runEvents{}
		} else {
			cur.levels = append(cur.levels, e)
		}
	}
	return runs
}

func (c *collector) close() int64 {
	close(c.stop)
	<-c.done
	c.cancel()
	return c.dropped
}

// addLevelSpans hangs one span per level event of an engine run under the
// span [start, end] of the call that made the run, and returns the level
// durations in ms. The last level ends when the run-done event arrived: what
// follows it inside the call (gathering the result) stays the caller's self
// time.
func addLevelSpans(t *tracer, parent, opID int, layer string, start, end time.Time, run runEvents) []float64 {
	stamps := make([]time.Time, len(run.levels))
	for i, e := range run.levels {
		stamps[i] = e.at
	}
	if !run.done.IsZero() && run.done.Before(end) {
		end = run.done
	}
	ms := make([]float64, len(stamps))
	for i, iv := range levelSpans(start, end, stamps) {
		ev := run.levels[i].ev
		t.add(parent, opID, layer, "level."+ev.Direction, iv[0], iv[1], map[string]int64{
			"level": int64(ev.Level), "frontier_vertices": ev.FrontierVertices, "edges_relaxed": ev.EdgesRelaxed,
		})
		ms[i] = iv[1].Sub(iv[0]).Seconds() * 1e3
	}
	return ms
}

// tracedResult is what the traced pass hands to the report.
type tracedResult struct {
	layers    values
	spans     []span
	attempted int
	failed    int
	failures  []string
	// baseP50 and tracedP50 are the median kernel times of the same ops
	// without and with the observer attached.
	baseP50, tracedP50 float64
}

// runTraced is the second pass: a quarter of the workload's ops, each run
// once plain and once with an observer attached and spans recorded around
// every call into a layer, followed by the probes. No end-to-end metric comes
// from here.
func runTraced(w workload, seed int64) (*tracedResult, error) {
	t := newTracer(w.Name)
	rootSpan := t.open(-1, -1, "benchmark", "workload", time.Now())
	inst, st, err := setup(w, seed, t, rootSpan)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	inst.prepareOracles()
	lv := values{}
	for _, d := range perLayer {
		lv[d.Name] = 0
	}
	lv["graph.kronecker_ns_per_edge"] = ratio(float64(st.kronecker.Nanoseconds()), float64(st.generatedEdges))
	lv["graph.csr_ns_per_edge"] = ratio(float64(st.csr.Nanoseconds()), float64(st.generatedEdges))
	lv["graph.csr_allocs"] = float64(st.csrAllocs)
	lv["graph500.sample_roots_ms"] = st.sampleRoots.Seconds() * 1e3
	lv["core.newrunner_ms"] = st.newRunner.Seconds() * 1e3

	// The observed twin: same configuration, observer attached.
	observer := &obs.Observer{
		Metrics:  obs.NewRegistry(),
		Trace:    obs.NewTraceRecorder(),
		Progress: obs.NewProgressBroker(),
	}
	col := newCollector(observer.Progress)
	plain := &pass{inst: inst, runner: inst.runner}
	traced := &pass{inst: inst, obs: observer, col: col, parent: rootSpan}
	if w.BFS {
		cfg := w.Config
		cfg.Obs = observer
		if traced.runner, err = core.NewRunner(cfg, inst.g); err != nil {
			return nil, err
		}
	}
	plain.warmup()
	traced.warmup()
	// The warm-up fed the observer too; start the measured ops from empty
	// sinks (the runner reads them through the shared Observer).
	observer.Metrics, observer.Trace = obs.NewRegistry(), obs.NewTraceRecorder()
	traced.t = t

	res := &tracedResult{layers: lv}
	n := max(1, w.Ops/4)
	samples, mallocs := res.runTwins(plain, traced, n)
	lv["obs.dropped_events"] = float64(col.close())
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: no traced op succeeded: %v", w.Name, res.failures)
	}
	lv["obs.overhead_pct"] = (ratio(res.tracedP50, res.baseP50) - 1) * 100
	var cw countingWriter
	if err := observer.Trace.WriteJSON(&cw); err != nil {
		return nil, err
	}
	lv["obs.trace_bytes_per_op"] = ratio(float64(cw), float64(len(samples)))

	counters := observer.Metrics.Snapshot().Counters
	lv["comm.retries"] = float64(counters["comm.retries"])
	modelledLayers(w, samples, lv)
	// Pairs the handlers consumed per op: exactly the pairs that crossed the
	// comm layer (a relayed pair counts once).
	var pairsPerOp float64
	if w.BFS {
		coreLevelTimes(inst, samples, lv)
		var validateNs float64
		for _, s := range samples {
			validateNs += float64(s.validate.Nanoseconds())
		}
		lv["graph500.validate_ns_per_edge"] = ratio(validateNs, float64(len(samples))*float64(inst.g.NumEdges()))
		handled := counters["core.module.handler.forward.bytes"] + counters["core.module.handler.backward.bytes"]
		pairsPerOp = ratio(float64(handled)/comm.PairBytes, float64(len(samples)))
	} else {
		algosRoundTimes(samples, mallocs, lv)
		for _, s := range samples {
			pairsPerOp += float64(s.m.Edges) / float64(len(samples))
		}
	}

	probes := t.open(rootSpan, -1, "benchmark", "probe", time.Now())
	lv["core.sim_slowdown_x"] = ratio(res.baseP50, probeSerialBaseline(inst, t, probes, lv))
	probeGraph(inst, t, probes, lv)
	if w.BFS {
		probeSerialValidate(inst, t, probes, lv)
	}
	if err := probeComm(inst, samples[0].m, t, probes, lv); err != nil {
		return nil, fmt.Errorf("%s: comm probe: %w", w.Name, err)
	}
	lv["comm.est_share_pct"] = ratio(lv["comm.exchange_ns_per_pair"]*pairsPerOp, res.baseP50*1e6) * 100
	if w.BFS {
		if err := probeCheckpoint(inst, n, t, probes, lv); err != nil {
			return nil, fmt.Errorf("%s: checkpoint probe: %w", w.Name, err)
		}
	}
	now := time.Now()
	t.finish(probes, now)
	t.finish(rootSpan, now)
	res.spans = t.spans
	return res, nil
}

// runTwins runs the first n ops twice each, plain then observed, alternating
// so that drift in the machine's state falls on both sides alike. It returns
// the observed samples of the ops that passed on both sides and the heap
// allocations of the observed side.
func (res *tracedResult) runTwins(plain, traced *pass, n int) (samples []opSample, mallocs uint64) {
	var baseMs, tracedMs []float64
	for i := 0; i < n; i++ {
		b := plain.runOp(i)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := traced.runOp(i)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		res.attempted += 2
		for _, r := range []opSample{b, s} {
			if r.err != nil {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("op %d: %v", i, r.err))
			}
		}
		if b.err != nil || s.err != nil {
			continue
		}
		baseMs = append(baseMs, b.kernel.Seconds()*1e3)
		tracedMs = append(tracedMs, s.kernel.Seconds()*1e3)
		samples = append(samples, s)
	}
	res.baseP50, res.tracedP50 = median(baseMs), median(tracedMs)
	return samples, mallocs
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// probeSerialBaseline times the plain single-threaded solution of the same
// problem — core.ReferenceBFS from the first root, or ReferenceWCC plus
// ReferencePageRank — and returns it in ms.
func probeSerialBaseline(inst *instance, t *tracer, parent int, lv values) float64 {
	if inst.w.BFS {
		d := t.timed(parent, -1, "core", "core.reference_bfs", func() {
			core.ReferenceBFS(inst.g, inst.roots[0])
		})
		lv["core.reference_bfs_ms"] = d.Seconds() * 1e3
		return d.Seconds() * 1e3
	}
	d := t.timed(parent, -1, "algos", "algos.reference_kernels", func() {
		algos.ReferenceWCC(inst.g)
		algos.ReferencePageRank(inst.g, pagerankIterations, pagerankDamping)
	})
	return d.Seconds() * 1e3
}

// modelledLayers fills the exact per-layer counts from the recorded level
// statistics of the traced ops.
func modelledLayers(w workload, samples []opSample, lv values) {
	topo, err := fabric.NewTopology(w.Config.Nodes, w.Config.SuperNodeSize)
	if err != nil {
		return // the runs above would have failed first
	}
	model := perf.NewModel(topo, w.Config.Engine)
	ops := float64(len(samples))
	var levels, bottomUp, processed, invocations, edges float64
	var intra, central, collective, p2pBytes, msgs, kernelSec float64
	var tdUs, buUs []float64
	for _, s := range samples {
		edges += float64(s.m.Edges)
		kernelSec += s.m.Seconds
		for _, l := range s.m.Levels {
			levels++
			us := model.LevelTime(l) * 1e6
			if l.Direction == core.BottomUp.String() {
				bottomUp++
				buUs = append(buUs, us)
			} else {
				tdUs = append(tdUs, us)
			}
			processed += float64(l.MaxNodeProcessedBytes)
			invocations += float64(l.ModuleInvocations)
			intra += float64(l.Net.Bytes[fabric.IntraSuper])
			central += float64(l.Net.Bytes[fabric.InterSuper])
			collective += float64(l.Net.CollectiveBytes)
			p2pBytes += float64(l.Net.Bytes[fabric.IntraSuper] + l.Net.Bytes[fabric.InterSuper])
			msgs += float64(l.Net.Messages[fabric.IntraSuper] + l.Net.Messages[fabric.InterSuper])
		}
	}
	lv["core.levels_per_op"] = levels / ops
	lv["core.bottomup_levels_per_op"] = bottomUp / ops
	lv["core.processed_bytes_per_edge"] = ratio(processed, edges)
	lv["core.module_invocations_per_op"] = invocations / ops
	lv["fabric.bytes_intra_supernode"] = intra / ops
	lv["fabric.bytes_central"] = central / ops
	lv["fabric.collective_bytes"] = collective / ops
	lv["fabric.avg_message_bytes"] = ratio(p2pBytes, msgs)
	lv["perf.modelled_level_us_topdown"] = mean(tdUs)
	lv["perf.modelled_level_us_bottomup"] = mean(buUs)
	lv["perf.modelled_kernel_ms_mean"] = kernelSec / ops * 1e3
	if !w.BFS {
		lv["algos.wcc_rounds"] = float64(samples[0].m.WCCRounds)
	}
}

// coreLevelTimes derives the host cost of BFS levels by direction. An op
// whose level events were lost (levelMs does not line up with the recorded
// levels) contributes nothing.
func coreLevelTimes(inst *instance, samples []opSample, lv values) {
	var tdMs, buMs, floorUs []float64
	var tdNs, tdEdges, buNs, buUnvisited float64
	for _, s := range samples {
		ms := s.levelMs
		if len(ms) != len(s.m.Levels) {
			continue
		}
		var visited int64
		for i, l := range s.m.Levels {
			visited += l.FrontierVertices
			if i == 0 {
				floorUs = append(floorUs, ms[i]*1e3)
			}
			if l.Direction == core.BottomUp.String() {
				buMs = append(buMs, ms[i])
				buNs += ms[i] * 1e6
				buUnvisited += float64(inst.g.N - visited)
			} else {
				tdMs = append(tdMs, ms[i])
				tdNs += ms[i] * 1e6
				tdEdges += float64(l.FrontierEdges)
			}
		}
	}
	lv["core.level_ms_topdown_p50"] = median(tdMs)
	lv["core.level_ms_bottomup_p50"] = median(buMs)
	lv["core.level_floor_us"] = median(floorUs)
	lv["core.td_ns_per_frontier_edge"] = ratio(tdNs, tdEdges)
	lv["core.bu_ns_per_unvisited_vertex"] = ratio(buNs, buUnvisited)
}

// algosRoundTimes derives the host cost of kernel rounds; round_floor_ms is
// the last WCC round, whose frontier is nearly empty.
func algosRoundTimes(samples []opSample, mallocs uint64, lv values) {
	var wccMs, prMs, floorMs []float64
	var rounds float64
	for _, s := range samples {
		rounds += float64(len(s.m.Levels))
		ms := s.levelMs
		w := s.m.WCCRounds
		if len(ms) != len(s.m.Levels) || w == 0 {
			continue
		}
		wccMs = append(wccMs, ms[:w]...)
		prMs = append(prMs, ms[w:]...)
		floorMs = append(floorMs, ms[w-1])
	}
	lv["algos.wcc_ms_per_round"] = mean(wccMs)
	lv["algos.pagerank_ms_per_iter"] = mean(prMs)
	lv["algos.round_floor_ms"] = median(floorMs)
	lv["algos.allocs_per_round"] = ratio(float64(mallocs), rounds)
}

// probeGraph times graph.ExtractLocal for every node, the partitioning step
// NewRunner and algos.Run both repeat internally.
func probeGraph(inst *instance, t *tracer, parent int, lv values) {
	part := graph.NewRoundRobin(inst.g.N, inst.w.Config.Nodes)
	d := t.timed(parent, -1, "graph", "graph.extract_local", func() {
		for node := 0; node < inst.w.Config.Nodes; node++ {
			graph.ExtractLocal(inst.g, part, node)
		}
	})
	lv["graph.extract_local_ms"] = d.Seconds() * 1e3
}

// probeSerialValidate times graph500.Validate, the serial baseline of
// ValidateParallel, on the reference tree of the first root.
func probeSerialValidate(inst *instance, t *tracer, parent int, lv values) {
	root := inst.roots[0]
	tree, _ := core.ReferenceBFS(inst.g, root)
	d := t.timed(parent, -1, "graph500", "graph500.validate_seq", func() {
		_, _ = graph500.Validate(inst.g, root, tree) // a reference tree; timing only
	})
	lv["graph500.validate_seq_ns_per_edge"] = ratio(float64(d.Nanoseconds()), float64(inst.g.NumEdges()))
}
