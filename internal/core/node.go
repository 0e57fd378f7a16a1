package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/comm"
	"swbfs/internal/graph"
	"swbfs/internal/sw"
)

// nodeState is one simulated compute node of the machine. Its fields split
// into module domains matching the pipelined module mapping: the generator
// modules (Forward/Backward Generator) run on one goroutine, the handler
// modules (Forward/Backward Handler, plus the transparent Relay modules
// inside the relay endpoint) on another — each goroutine standing in for a
// CPE cluster dispatched by the node's MPEs.
type nodeState struct {
	id int
	r  *Runner

	sub *graph.LocalSubgraph

	// parent is indexed by local vertex; accessed with atomics because the
	// handler publishes discoveries while the bottom-up generator scans
	// for unvisited vertices. NoVertex (-1) means undiscovered.
	parent []int64

	// curr is the current frontier (local indices, read-only during a
	// level). next collects handler discoveries; genNext collects the
	// generator's local hub claims and is merged after the level joins —
	// the two bitmaps keep each writer single-threaded (or word-sharded
	// across workers), the same contention-free discipline the CPE
	// consumers follow. visited snapshots the discovered set at level
	// start (visited |= curr before the level runs); the bottom-up
	// generator scans its complement so the probe set never depends on
	// mid-level claim timing.
	curr, next, genNext, visited *graph.Bitmap
	// hubWords is localHubWords' scratch (empty without hub prefetch).
	hubWords *graph.Bitmap

	ep comm.Endpoint
	// handlerErr carries the handler goroutine's verdict to runLevel.
	handlerErr chan error
	// serialEmit is stagedFanout's Workers=1 emit per channel, bound once:
	// a closure built per level is an allocation per level.
	serialEmit [2]emitFn

	// workers is the module worker-pool width (Config.Workers resolved):
	// 1 runs every hot loop serially on the module goroutine.
	workers int

	// policyReplica is this node's private copy of the direction policy
	// state machine (node 0 uses the runner's authoritative one); all
	// replicas see identical allreduced inputs and stay in lock step.
	policyReplica *Policy

	localEdges int64
	// visitedDeg accumulates the degrees of locally visited vertices, for
	// the mu (unexplored edges) statistic of the direction policy.
	visitedDeg int64

	// Per-level statistics; generator-owned and handler-owned fields are
	// separate so the two module goroutines never share a counter.
	genBytes       int64 // generator module input (scanned edges)
	genInvocations int64 // generator CPE-cluster dispatches
	handlerBytes   int64 // handler module input (received pairs)
	hFwdBytes      int64 // Forward Handler share of handlerBytes
	hBwdBytes      int64 // Backward Handler share of handlerBytes
	relayBytes     int64 // Forward/Backward Relay module input (relay transport)
	hInvocations   int64 // handler CPE-cluster dispatches (batches >= 1 KB)
	smallBatches   int64 // sub-1 KB batches fast-pathed on the MPE

	// Whole-run accumulations of the per-level counters above, folded
	// into the observability registry after the run (each node writes
	// only its own fields; the runner sums after the goroutines join).
	runGenBytes     int64
	runFwdBytes     int64
	runBwdBytes     int64
	runRelayBytes   int64
	runInvocations  int64
	runSmallBatches int64

	// spanLog retains every level's per-module work when span recording
	// is enabled (cfg.Obs.Spans non-nil), one entry per level in order —
	// the raw material of the Chrome-trace module timeline. Each node
	// appends only to its own log.
	spanLog []moduleWork
}

// newNodeState allocates a node's run-surviving buffers; resetRun makes
// them a run's.
func newNodeState(r *Runner, node int) *nodeState {
	sub := r.subs[node]
	ns := &nodeState{
		id:            node,
		r:             r,
		sub:           sub,
		parent:        make([]int64, sub.NumVertices()),
		curr:          graph.NewBitmap(sub.NumVertices()),
		next:          graph.NewBitmap(sub.NumVertices()),
		genNext:       graph.NewBitmap(sub.NumVertices()),
		visited:       graph.NewBitmap(sub.NumVertices()),
		hubWords:      graph.NewBitmap(int64(r.hubsBottomUp)),
		policyReplica: new(Policy),
		handlerErr:    make(chan error, 1),
	}
	for ch := range ns.serialEmit {
		ns.serialEmit[ch] = func(ws *workerStage) (*workerStage, error) {
			return ws, ns.flushStage(comm.Channel(ch), ws)
		}
	}
	return ns
}

// resetRun opens a run on this node: the struct is rebuilt from what
// survives a run (identity, subgraph, the parent array and the bitmaps,
// emptied, the handler channel), so every other field starts at zero.
func (ns *nodeState) resetRun(ep comm.Endpoint) {
	r := ns.r
	*ns = nodeState{
		id: ns.id, r: r, sub: ns.sub,
		parent: ns.parent, curr: ns.curr, next: ns.next, genNext: ns.genNext, visited: ns.visited,
		hubWords: ns.hubWords, handlerErr: ns.handlerErr, serialEmit: ns.serialEmit,
		ep:            ep,
		workers:       r.cfg.Workers,
		policyReplica: ns.policyReplica,
		localEdges:    ns.sub.NumEdges(),
	}
	*ns.policyReplica = *NewPolicy(r.cfg.Alpha, r.cfg.Beta, r.cfg.DirectionOptimized)
	for i := range ns.parent {
		ns.parent[i] = int64(graph.NoVertex)
	}
	for _, bm := range []*graph.Bitmap{ns.curr, ns.next, ns.genNext, ns.visited, ns.hubWords} {
		bm.Reset()
	}
}

// moduleWork is one level's per-module input volume on one node:
// generator, forward handler, backward handler, relay — the same order as
// moduleBytes.
type moduleWork struct {
	level int
	dir   Direction
	bytes [4]int64
}

// accumulateRun folds the level's counters into the whole-run totals;
// called once per level after the module goroutines have joined.
func (ns *nodeState) accumulateRun() {
	ns.runGenBytes += ns.genBytes
	ns.runFwdBytes += ns.hFwdBytes
	ns.runBwdBytes += ns.hBwdBytes
	ns.runRelayBytes += ns.relayBytes
	ns.runInvocations += ns.invocations()
	ns.runSmallBatches += ns.smallBatches
}

// invocations sums the module dispatches of the level; call only after the
// module goroutines have joined.
func (ns *nodeState) invocations() int64 { return ns.genInvocations + ns.hInvocations }

func (ns *nodeState) parentOf(local int64) graph.Vertex {
	return graph.Vertex(atomic.LoadInt64(&ns.parent[local]))
}

// claim publishes `u` as the parent of local vertex `local` unless an
// equal-or-smaller parent is already recorded; it reports whether this
// call improved the entry. The min rule (rather than first-writer-wins)
// makes the parent tree a pure function of each level's candidate set —
// the candidate sets are deterministic per level (fixed visited snapshots
// and hub bitmaps), so taking the minimum over them erases arrival-order
// races between workers and transports. Chaos relies on this: a completed
// faulty run must produce a bit-identical tree (docs/CHAOS.md).
func (ns *nodeState) claim(local int64, u graph.Vertex) bool {
	for {
		old := atomic.LoadInt64(&ns.parent[local])
		if old != int64(graph.NoVertex) && old <= int64(u) {
			return false
		}
		if atomic.CompareAndSwapInt64(&ns.parent[local], old, int64(u)) {
			return true
		}
	}
}

func (ns *nodeState) resetLevelCounters() {
	ns.genBytes = 0
	ns.genInvocations = 0
	ns.handlerBytes = 0
	ns.hFwdBytes = 0
	ns.hBwdBytes = 0
	ns.relayBytes = 0
	ns.hInvocations = 0
	ns.smallBatches = 0
}

// moduleBytes returns the level's per-module input volumes for the
// pipelined-module-mapping scheduler: generator, forward handler, backward
// handler, relay. Call after the module goroutines have joined.
func (ns *nodeState) moduleBytes() [4]int64 {
	return [4]int64{ns.genBytes, ns.hFwdBytes, ns.hBwdBytes, ns.relayBytes}
}

// levelChannels lists the channels a level of each direction opens.
var levelChannels = [...][]comm.Channel{
	TopDown:  {comm.ChanForward},
	BottomUp: {comm.ChanForward, comm.ChanBackward},
}

// runLevel executes one BFS level on this node: generator and handler
// modules run concurrently, the level completes when the transport reports
// all channels closed.
func (ns *nodeState) runLevel(level int, dir Direction) error {
	ns.resetLevelCounters()
	ns.genNext.Reset()

	ns.ep.StartLevel(level, levelChannels[dir]...)
	ns.r.net.Barrier()
	if ns.r.net.Aborted() {
		return ErrAborted
	}

	// Each module's host duration feeds straggler detection. The chaos
	// delays stall the module goroutines before their work, as if a CPE
	// cluster were slow to dispatch — host time only, invisible to the
	// modelled machine. The handler's slot write is ordered before the
	// runner's post-level read by the handlerErr receive below.
	go func() {
		start := time.Now()
		if d := ns.r.net.ChaosDelay(chaos.KindDelayHandler, ns.id, level); d > 0 {
			time.Sleep(d)
		}
		err := ns.handle(dir)
		ns.r.hostHandlerNanos[ns.id] = int64(time.Since(start))
		ns.handlerErr <- err
	}()

	genStart := time.Now()
	if d := ns.r.net.ChaosDelay(chaos.KindDelayGenerator, ns.id, level); d > 0 {
		time.Sleep(d)
	}
	var genErr error
	if dir == TopDown {
		genErr = ns.forwardGenerator()
	} else {
		genErr = ns.backwardGenerator()
	}
	ns.r.hostGenNanos[ns.id] = int64(time.Since(genStart))
	hErr := <-ns.handlerErr
	if genErr != nil {
		return genErr
	}
	return hErr
}

// forwardGenerator is FORWARD_GENERATOR (Algorithm 2): scan the frontier's
// adjacency and ship one (u, v) message per edge to v's owner. The hub
// shortcut skips edges whose endpoint is a hub already known visited — the
// prefetched bitmap makes that a local test. The scan word-steps the
// frontier bitmap and fans out across the node's worker pool (stagedFanout
// keeps the message stream identical to a serial scan).
func (ns *nodeState) forwardGenerator() error {
	r := ns.r
	if err := ns.stagedFanout(comm.ChanForward, len(ns.curr.Words()), (*nodeState).forwardScan); err != nil {
		r.net.Abort()
		return err
	}
	if ns.genBytes > 0 {
		ns.genInvocations++ // one CPE-cluster dispatch however many lanes ran
	}
	if err := ns.ep.CloseChannel(comm.ChanForward); err != nil {
		r.net.Abort()
		return err
	}
	return nil
}

// forwardScan expands the frontier vertices of curr's words [lo, hi).
func (ns *nodeState) forwardScan(lo, hi int, stop *atomic.Bool, ws *workerStage, emit emitFn) (*workerStage, error) {
	r := ns.r
	words := ns.curr.Words()
	for wi := lo; wi < hi; wi++ {
		if stop != nil && stop.Load() {
			return ws, nil
		}
		for w := words[wi]; w != 0; w &= w - 1 {
			local := int64(wi)<<6 + int64(bits.TrailingZeros64(w))
			u := r.part.Global(ns.id, local)
			for _, v := range ns.sub.Neighbors(local) {
				ws.bytes += comm.PairBytes
				if r.hubs != nil {
					if slot, ok := r.hubs.Slot(v); ok && slot < r.hubsTopDown && r.hubVisited.Get(int64(slot)) {
						continue // hub already discovered: no message needed
					}
				}
				ws.Add(r.part.Owner(v), comm.Pair{u, v})
				if ws.Full() {
					var err error
					if ws, err = emit(ws); err != nil {
						return ws, err
					}
				}
			}
		}
	}
	return ws, nil
}

// backwardGenerator is BACKWARD_GENERATOR: every locally unvisited vertex
// probes its neighbours. Hub neighbours are resolved locally against the
// prefetched hub frontier (claiming a parent and ending the scan on a hit,
// skipping the query on a miss); other neighbours trigger a backward query
// to their owner. "Unvisited" means not discovered before the level
// started (the visited snapshot): a deterministic scan set, where peeking
// at live parent claims would make the probe traffic depend on message
// timing.
func (ns *nodeState) backwardGenerator() error {
	r := ns.r
	if err := ns.stagedFanout(comm.ChanBackward, len(ns.visited.Words()), (*nodeState).backwardScan); err != nil {
		r.net.Abort()
		return err
	}
	if ns.genBytes > 0 {
		ns.genInvocations++
	}
	if err := ns.ep.CloseChannel(comm.ChanBackward); err != nil {
		r.net.Abort()
		return err
	}
	return nil
}

// backwardScan probes the unvisited vertices of visited's words [lo, hi).
// genNext writes stay inside the worker's own words, so the sharded scan
// needs no synchronization beyond the parent CAS.
func (ns *nodeState) backwardScan(lo, hi int, stop *atomic.Bool, ws *workerStage, emit emitFn) (*workerStage, error) {
	r := ns.r
	n := ns.sub.NumVertices()
	words := ns.visited.Words()
	for wi := lo; wi < hi; wi++ {
		if stop != nil && stop.Load() {
			return ws, nil
		}
		w := ^words[wi]
		if rem := n - int64(wi)<<6; rem < 64 {
			w &= 1<<uint(rem) - 1 // mask the bits beyond the vertex count
		}
		for ; w != 0; w &= w - 1 {
			local := int64(wi)<<6 + int64(bits.TrailingZeros64(w))
			v := r.part.Global(ns.id, local)
			for _, u := range ns.sub.Neighbors(local) {
				ws.bytes += comm.PairBytes
				if r.hubs != nil {
					if slot, ok := r.hubs.Slot(u); ok && slot < r.hubsBottomUp {
						if r.hubInCurr.Get(int64(slot)) {
							if ns.claim(local, u) {
								ns.genNext.Set(local)
							}
							break // parent found (by us or the handler): stop probing
						}
						continue // hub known absent from the frontier: skip the query
					}
				}
				ws.Add(r.part.Owner(u), comm.Pair{u, v})
				if ws.Full() {
					var err error
					if ws, err = emit(ws); err != nil {
						return ws, err
					}
				}
			}
		}
	}
	return ws, nil
}

// handle runs the handler modules: FORWARD_HANDLER updates the parent map
// and the next frontier; BACKWARD_HANDLER answers frontier probes by
// forwarding a discovery to the asker's owner. In bottom-up levels the
// forward channel closes once the backward stream has fully drained,
// mirroring the longer data path of Figure 4(b).
func (ns *nodeState) handle(dir Direction) error {
	r := ns.r
	for {
		ev := ns.ep.Recv()
		switch ev.Type {
		case comm.EvError:
			r.net.Abort()
			return ev.Err

		case comm.EvData:
			batch := &ev.Batch
			bytes := batch.ByteSize()
			pairBytes := int64(len(batch.Pairs)) * comm.PairBytes
			ns.handlerBytes += pairBytes
			if ev.Channel == comm.ChanForward {
				ns.hFwdBytes += pairBytes
			} else {
				ns.hBwdBytes += pairBytes
			}
			if r.cfg.SmallMessageMPE && bytes < sw.SmallMessageThresholdBytes {
				ns.smallBatches++
			} else {
				ns.hInvocations++
			}
			var err error
			switch ev.Channel {
			case comm.ChanForward:
				ns.handleForward(batch.Pairs)
			case comm.ChanBackward:
				err = ns.handleBackward(batch.Pairs)
			}
			comm.PutPairs(batch.Pairs)
			batch.Pairs = nil
			if err != nil {
				r.net.Abort()
				return err
			}

		case comm.EvChannelClosed:
			switch ev.Channel {
			case comm.ChanBackward:
				// All probes answered: this node's forward contributions
				// are complete.
				if err := ns.ep.CloseChannel(comm.ChanForward); err != nil {
					r.net.Abort()
					return err
				}
			case comm.ChanForward:
				// Level complete on this node; snapshot relay-module work
				// (this goroutine ran the relay duties inside Recv).
				if rep, ok := ns.ep.(*comm.RelayEndpoint); ok {
					ns.relayBytes = rep.RelayedBytes()
				}
				return nil
			}
		}
	}
}

// handleForward applies one batch of discovery messages: claim the parent,
// mark the vertex for the next frontier. Large batches fan across the
// worker pool — claims are already CAS, and next-frontier bits switch to
// the atomic setter because two workers' pairs can land in one word.
func (ns *nodeState) handleForward(pairs []comm.Pair) {
	r := ns.r
	shards := ns.handlerShards(pairs)
	if shards == nil {
		for _, p := range pairs {
			u, v := p[0], p[1]
			local := r.part.Local(v)
			if ns.visited.Get(local) {
				continue // discovered in an earlier level: parent is final
			}
			if ns.claim(local, u) {
				ns.next.Set(local)
			}
		}
		return
	}
	var wg sync.WaitGroup
	for _, shard := range shards {
		wg.Add(1)
		go func(ps []comm.Pair) {
			defer wg.Done()
			for _, p := range ps {
				u, v := p[0], p[1]
				local := r.part.Local(v)
				if ns.visited.Get(local) {
					continue
				}
				if ns.claim(local, u) {
					ns.next.SetAtomic(local)
				}
			}
		}(shard)
	}
	wg.Wait()
}

// handleBackward answers one batch of bottom-up probes: each (u, v) pair
// whose u is in this node's current frontier earns a forward reply to v's
// owner. Large batches fan across the worker pool with per-worker staging;
// merging the stages in shard order reproduces the serial reply stream, so
// the transport's quantum batching sees identical input either way.
func (ns *nodeState) handleBackward(pairs []comm.Pair) error {
	r := ns.r
	shards := ns.handlerShards(pairs)
	if shards == nil {
		ws := getStage()
		defer putStage(ws)
		for _, p := range pairs {
			u, v := p[0], p[1]
			if ns.curr.Get(r.part.Local(u)) {
				ws.Add(r.part.Owner(v), comm.Pair{u, v})
			}
		}
		return ws.Flush(ns.ep, comm.ChanForward)
	}
	stages := make([]*workerStage, len(shards))
	var wg sync.WaitGroup
	for w, shard := range shards {
		stages[w] = getStage()
		wg.Add(1)
		go func(ws *workerStage, ps []comm.Pair) {
			defer wg.Done()
			for _, p := range ps {
				u, v := p[0], p[1]
				if ns.curr.Get(r.part.Local(u)) {
					ws.Add(r.part.Owner(v), comm.Pair{u, v})
				}
			}
		}(stages[w], shard)
	}
	wg.Wait()
	var firstErr error
	for _, ws := range stages {
		if firstErr == nil {
			firstErr = ws.Flush(ns.ep, comm.ChanForward)
		}
		putStage(ws)
	}
	return firstErr
}
