package core

import (
	"math/bits"
	"sync/atomic"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/graph"
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

	ep comm.Endpoint
	// lanes are the node's send paths, one per channel, each driven by one
	// module goroutine at a time — the generator's, or in bottom-up levels
	// the handler's forward replies — and holding a pooled stage only while
	// that module sends.
	lanes [2]comm.Lane
	// handlerErr carries the handler goroutine's verdict to Work.
	handlerErr chan error

	// workers is the module worker-pool width (Config.Workers resolved):
	// the CPE lanes a hot loop fans over, 1 running it on the module
	// goroutine.
	workers int

	// policyReplica is this node's private copy of the direction policy
	// state machine (node 0's is the one checkpoints capture); all replicas
	// see identical allreduced inputs and stay in lock step.
	policyReplica *Policy

	localEdges int64
	// visitedDeg accumulates the degrees of locally visited vertices, for
	// the mu (unexplored edges) statistic of the direction policy.
	visitedDeg int64
	// stats is the level's statistics vector (Stats), allreduced in place.
	stats [3]int64

	// Per-level statistics; generator-owned and handler-owned fields are
	// separate so the two module goroutines never share a counter.
	genBytes       atomic.Int64 // generator module input (scanned edges), tallied by its lanes
	genInvocations int64        // generator CPE-cluster dispatches
	// books are the handler module's, ordered before Work reads them by
	// the handlerErr receive.
	books HandlerBooks
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
		policyReplica: new(Policy),
		handlerErr:    make(chan error, 1),
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
		handlerErr:    ns.handlerErr,
		ep:            ep,
		workers:       r.cfg.Workers,
		policyReplica: ns.policyReplica,
		localEdges:    ns.sub.NumEdges(),
	}
	*ns.policyReplica = *NewPolicy(r.cfg.Alpha, r.cfg.Beta, r.cfg.DirectionOptimized)
	for i := range ns.parent {
		ns.parent[i] = int64(graph.NoVertex)
	}
	for _, bm := range []*graph.Bitmap{ns.curr, ns.next, ns.genNext, ns.visited} {
		bm.Reset()
	}
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

// levelChannels lists the channels a level of each direction opens.
var levelChannels = [...][]comm.Channel{
	TopDown:  {comm.ChanForward},
	BottomUp: {comm.ChanForward, comm.ChanBackward},
}

// levelFold is the fold a level of each direction declares for its forward
// batches. Top-down pairs fold by FoldMin: claim keeps the smallest parent,
// so one (min u, v) pair per batch leaves the tree every (u, v) pair would.
// Bottom-up forward replies go out in arrival order (handleBackward), so
// what a batch would fold away depends on timing; they declare none.
var levelFold = [len(levelChannels)]comm.Fold{TopDown: comm.FoldMin}

// Work runs one BFS level's module work on this node: the generator and
// handler modules concurrently, until the transport reports all channels
// closed. It then advances the frontier — next (handler discoveries)
// merged with genNext (local hub claims) — so a boundary capture sees the
// frontier entering the next level. A handler batch under 1 KB counts as an
// MPE small batch with SmallMessageMPE, else as a CPE-cluster invocation.
func (ns *nodeState) Work(level int, p Plan) (ckpt.ModuleWork, error) {
	ns.genBytes.Store(0)
	ns.genInvocations = 0
	ns.genNext.Reset()
	m := ns.r.m
	go func() {
		var err error
		ns.books, err = m.Handle(ns.id, level, ns.dispatch)
		ns.handlerErr <- err
	}()
	err := m.Generate(ns.id, level, func() error {
		if p.Dir == TopDown {
			return ns.generate(comm.ChanForward, len(ns.curr.Words()), (*nodeState).forwardScan)
		}
		return ns.generate(comm.ChanBackward, len(ns.visited.Words()), (*nodeState).backwardScan)
	})
	if hErr := <-ns.handlerErr; err == nil {
		err = hErr
	}
	if err != nil {
		return ckpt.ModuleWork{}, err
	}

	ns.next.Or(ns.genNext)
	ns.curr, ns.next = ns.next, ns.curr
	ns.next.Reset()
	h := ns.books
	w := ckpt.ModuleWork{
		Bytes:       [4]int64{ns.genBytes.Load(), h.Pairs[comm.ChanForward] * comm.PairBytes, h.Pairs[comm.ChanBackward] * comm.PairBytes, h.Relayed},
		Invocations: ns.genInvocations + h.Batches,
	}
	if ns.r.cfg.SmallMessageMPE {
		w.Invocations -= h.Small
		w.SmallBatches = h.Small
	}
	return w, nil
}

// generate runs the level's generator module on channel ch: scan covers a
// bitmap of the given word count, fanned over the node's lanes — the CPE
// lanes of the module's cluster — by comm.Fanout, which keeps the message
// stream a serial scan's. Lanes shard by whole words, so a lane's bitmap
// writes stay in its own words; parent claims go through the handler's CAS.
func (ns *nodeState) generate(ch comm.Channel, words int, scan func(*nodeState, *comm.Lane, int64, int64) error) error {
	l := &ns.lanes[ch]
	l.Open(ns.ep, ch)
	err := comm.Fanout(l, int64(words), ns.workers, ns, scan)
	if err == nil {
		err = l.Flush()
	}
	l.Release()
	if err == nil {
		if ns.genBytes.Load() > 0 {
			ns.genInvocations++ // one CPE-cluster dispatch however many lanes ran
		}
		err = ns.ep.CloseChannel(ch)
	}
	if err != nil {
		ns.r.net.Abort()
	}
	return err
}

// forwardScan is FORWARD_GENERATOR (Algorithm 2) over curr's words
// [lo, hi): stage one (u, v) message per frontier edge for v's owner; the
// endpoint folds each sealed batch to one pair per v (levelFold). The hub
// shortcut skips edges whose endpoint is a hub already known visited — the
// prefetched bitmap makes that a local test. Scanned edges count as
// generator input even when the shortcut elides their message.
func (ns *nodeState) forwardScan(l *comm.Lane, lo, hi int64) error {
	r := ns.r
	_, _, seen := r.hubs.bitmaps()
	words := ns.curr.Words()
	var scanned int64
	for wi := lo; wi < hi; wi++ {
		for w := words[wi]; w != 0; w &= w - 1 {
			local := wi<<6 + int64(bits.TrailingZeros64(w))
			u := r.part.Global(ns.id, local)
			for _, v := range ns.sub.Neighbors(local) {
				scanned += comm.PairBytes
				if seen != nil && seen.Get(int64(v)) {
					continue // hub already discovered: no message needed
				}
				l.Add(r.part.Owner(v), comm.Pair{u, v})
				if l.Full() {
					if err := l.Ship(); err != nil {
						return err
					}
				}
			}
		}
	}
	ns.genBytes.Add(scanned)
	return nil
}

// backwardScan is BACKWARD_GENERATOR over visited's words [lo, hi): every
// locally unvisited vertex probes its neighbours. Hub neighbours are
// resolved locally against the prefetched hub frontier (claiming a parent
// and ending the scan on a hit, skipping the query on a miss); other
// neighbours trigger a backward query to their owner. "Unvisited" means not
// discovered before the level started (the visited snapshot): a
// deterministic scan set, where peeking at live parent claims would make
// the probe traffic depend on message timing.
func (ns *nodeState) backwardScan(l *comm.Lane, lo, hi int64) error {
	r := ns.r
	isHub, inFrontier, _ := r.hubs.bitmaps()
	n := ns.sub.NumVertices()
	words := ns.visited.Words()
	var scanned int64
	for wi := lo; wi < hi; wi++ {
		w := ^words[wi]
		if rem := n - wi<<6; rem < 64 {
			w &= 1<<uint(rem) - 1 // mask the bits beyond the vertex count
		}
		for ; w != 0; w &= w - 1 {
			local := wi<<6 + int64(bits.TrailingZeros64(w))
			v := r.part.Global(ns.id, local)
			for _, u := range ns.sub.Neighbors(local) {
				scanned += comm.PairBytes
				if isHub != nil && isHub.Get(int64(u)) {
					if inFrontier.Get(int64(u)) {
						if ns.claim(local, u) {
							ns.genNext.Set(local)
						}
						break // parent found (by us or the handler): stop probing
					}
					continue // hub known absent from the frontier: skip the query
				}
				l.Add(r.part.Owner(u), comm.Pair{u, v})
				if l.Full() {
					if err := l.Ship(); err != nil {
						return err
					}
				}
			}
		}
	}
	ns.genBytes.Add(scanned)
	return nil
}

// dispatch hands one delivered batch to its handler module:
// FORWARD_HANDLER updates the parent map and the next frontier;
// BACKWARD_HANDLER answers frontier probes by forwarding a discovery to the
// asker's owner.
func (ns *nodeState) dispatch(ch comm.Channel, pairs []comm.Pair) error {
	if ch == comm.ChanForward {
		ns.handleForward(pairs)
		return nil
	}
	return ns.handleBackward(pairs)
}

// handlerFanoutPairs is the smallest handler batch worth fanning over the
// node's lanes; smaller batches stay on the handler goroutine.
const handlerFanoutPairs = 2048

// handlerWidth is the lane count a handler batch of n pairs fans over.
func (ns *nodeState) handlerWidth(n int) int {
	if n < handlerFanoutPairs {
		return 1
	}
	return ns.workers
}

// handleForward applies one batch of discovery messages: claim the parent,
// mark the vertex for the next frontier. Large batches fan across the
// node's lanes — claims are already CAS, and next-frontier bits switch to
// the atomic setter because two lanes' pairs can land in one word.
func (ns *nodeState) handleForward(pairs []comm.Pair) {
	if k := ns.handlerWidth(len(pairs)); k > 1 {
		comm.ForEachShard(int64(len(pairs)), k, func(_ int, lo, hi int64) { ns.claimAll(pairs[lo:hi], true) })
		return
	}
	ns.claimAll(pairs, false)
}

// claimAll is handleForward's loop; shared selects the atomic bit setter.
func (ns *nodeState) claimAll(pairs []comm.Pair, shared bool) {
	part := ns.r.part
	for _, p := range pairs {
		u, v := p[0], p[1]
		local := part.Local(v)
		if ns.visited.Get(local) {
			continue // discovered in an earlier level: parent is final
		}
		if ns.claim(local, u) {
			if shared {
				ns.next.SetAtomic(local)
			} else {
				ns.next.Set(local)
			}
		}
	}
}

// handleBackward answers one batch of bottom-up probes on the forward
// lane: each (u, v) pair whose u is in this node's current frontier earns a
// forward reply to v's owner. Large batches fan across the node's lanes;
// comm.Fanout keeps the reply stream the serial one, so the transport's
// quantum batching sees identical input either way.
func (ns *nodeState) handleBackward(pairs []comm.Pair) error {
	l := &ns.lanes[comm.ChanForward]
	l.Open(ns.ep, comm.ChanForward)
	err := comm.Fanout(l, int64(len(pairs)), ns.handlerWidth(len(pairs)), probes{ns, pairs}, probes.answer)
	if err == nil {
		err = l.Flush()
	}
	l.Release()
	return err
}

// probes is one backward batch handed through comm.Fanout.
type probes struct {
	ns    *nodeState
	pairs []comm.Pair
}

// answer stages the replies to pairs [lo, hi) of the batch.
func (b probes) answer(l *comm.Lane, lo, hi int64) error {
	part := b.ns.r.part
	for _, p := range b.pairs[lo:hi] {
		u, v := p[0], p[1]
		if b.ns.curr.Get(part.Local(u)) {
			l.Add(part.Owner(v), comm.Pair{u, v})
			if l.Full() {
				if err := l.Ship(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
