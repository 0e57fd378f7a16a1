package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"swbfs/internal/fabric"
)

// collectiveGroup implements the blocking collectives of the simulated
// machine: a sum-allreduce (frontier accounting, direction policy) and an
// OR-allgather (hub frontier bitmaps). All nodes must call the same
// sequence of collective operations (SPMD), like MPI.
//
// Traffic accounting: the allreduce is modelled as a reduction tree
// (2 * 8 bytes * P total); the allgather as a ring where each node's
// contribution crosses P-1 links. The paper's "reduce global
// communication" optimization — gathering a one-byte empty flag instead of
// a hub bitmap when a node's hub frontier is empty — enters through the
// per-node payload size.
//
// Every modelled hop is attributed to the fat-tree link class it crosses
// (tree links parent(i) = (i-1)/2 for the allreduce, ring links
// i -> (i+1) mod P for the allgather), so per-class collective totals
// reconcile with the wire totals: a single-node "collective" is loopback,
// not network traffic.
type collectiveGroup struct {
	mu   sync.Mutex
	cond *sync.Cond
	net  *Network

	// treeBytes is the fixed per-class byte split of one 8-byte allreduce
	// (16 bytes up+down per node, the root's share staying on-node);
	// ringClass caches the link class of each ring hop i -> (i+1) mod P
	// (nil for a single node, where the allgather moves no bytes).
	treeBytes [fabric.NumLinkClasses]int64
	ringClass []fabric.LinkClass

	gen   int64
	count int

	sum     int64
	lastSum int64

	max     int64
	lastMax int64

	orAcc  []uint64
	lastOr []uint64

	payloadBytes int64

	// aborted is set under mu (so no waiter misses the broadcast) and read
	// without it by Network.Aborted, which every delivery calls.
	aborted atomic.Bool
}

// abort wakes every waiter; subsequent and in-flight collectives return
// zero values immediately. Callers observe the failure via Network.Aborted.
func (g *collectiveGroup) abort() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.abortLocked()
}

// abortLocked is abort for a collective that already holds mu.
func (g *collectiveGroup) abortLocked() {
	g.aborted.Store(true)
	g.cond.Broadcast()
}

func newCollectiveGroup(net *Network) *collectiveGroup {
	g := &collectiveGroup{net: net}
	g.cond = sync.NewCond(&g.mu)
	p := net.Nodes()
	g.treeBytes[fabric.Loopback] = 16 // the root's reduce+broadcast share
	for i := 1; i < p; i++ {
		g.treeBytes[net.Topo.Classify(i, (i-1)/2)] += 16
	}
	if p > 1 {
		g.ringClass = make([]fabric.LinkClass, p)
		for i := 0; i < p; i++ {
			g.ringClass[i] = net.Topo.Classify(i, (i+1)%p)
		}
	}
	return g
}

// recordTree charges one completed allreduce: 16 bytes per node, split by
// the link class of each tree hop (total 16 * P, matching the previous
// aggregate accounting).
func (g *collectiveGroup) recordTree() {
	for class, b := range g.treeBytes {
		if b > 0 {
			g.net.Counters.RecordCollective(fabric.LinkClass(class), b)
		}
	}
	g.net.Counters.RecordCollectiveOp()
}

// recordRing charges one completed allgather of `payload` total
// contribution bytes: each contribution crosses P-1 of the P ring links,
// so payload * (P-1) bytes total, spread evenly over the ring hops (the
// integer remainder lands on the first hops).
func (g *collectiveGroup) recordRing(payload int64) {
	p := int64(len(g.ringClass))
	if p > 0 {
		total := payload * (p - 1)
		per, rem := total/p, total%p
		for i, class := range g.ringClass {
			b := per
			if int64(i) < rem {
				b++
			}
			if b > 0 {
				g.net.Counters.RecordCollective(class, b)
			}
		}
	}
	g.net.Counters.RecordCollectiveOp()
}

// AllreduceSum returns the sum of every node's contribution. Blocks until
// all nodes arrive.
func (n *Network) AllreduceSum(value int64) int64 {
	g := n.coll
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.aborted.Load() {
		return 0
	}
	gen := g.gen
	g.sum += value
	g.count++
	if g.count == n.Nodes() {
		g.lastSum = g.sum
		g.sum = 0
		g.count = 0
		g.gen++
		// Tree reduce + broadcast: 8 bytes up and down per node.
		g.recordTree()
		g.cond.Broadcast()
		return g.lastSum
	}
	for gen == g.gen && !g.aborted.Load() {
		g.cond.Wait()
	}
	if g.aborted.Load() {
		return 0
	}
	return g.lastSum
}

// AllreduceMax returns the maximum of every node's contribution. Blocks
// until all nodes arrive. Used for critical-path statistics (the slowest
// node bounds the level time).
func (n *Network) AllreduceMax(value int64) int64 {
	g := n.coll
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.aborted.Load() {
		return 0
	}
	gen := g.gen
	if g.count == 0 || value > g.max {
		g.max = value
	}
	g.count++
	if g.count == n.Nodes() {
		g.lastMax = g.max
		g.max = 0
		g.count = 0
		g.gen++
		g.recordTree()
		g.cond.Broadcast()
		return g.lastMax
	}
	for gen == g.gen && !g.aborted.Load() {
		g.cond.Wait()
	}
	if g.aborted.Load() {
		return 0
	}
	return g.lastMax
}

// Barrier blocks until every node arrives.
func (n *Network) Barrier() { n.AllreduceSum(0) }

// AllgatherOr ORs every node's bitmap words together and returns the
// result to all nodes. Contributions must have equal length across nodes
// (or be nil); one that differs aborts the network and returns a
// *ProtocolError to its caller. When emptyOptimized is true and the
// contribution is nil, only a one-byte flag is charged to the network — the
// paper's global-communication reduction for empty hub frontiers.
func (n *Network) AllgatherOr(words []uint64, emptyOptimized bool) ([]uint64, error) {
	g := n.coll
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.aborted.Load() {
		return nil, nil
	}
	gen := g.gen

	if words != nil {
		if g.orAcc == nil {
			g.orAcc = make([]uint64, len(words))
		}
		if len(g.orAcc) != len(words) {
			// Poison the machine, not the process (Network.Abort with mu
			// held): peers waiting in this half-completed collective wake
			// aborted and blocked Recvs see the closed inboxes.
			n.Close()
			g.abortLocked()
			return nil, &ProtocolError{Node: -1, Src: -1, Reason: fmt.Sprintf(
				"allgather length mismatch: %d words against %d", len(words), len(g.orAcc))}
		}
		for i, w := range words {
			g.orAcc[i] |= w
		}
	}
	if words == nil && emptyOptimized {
		g.payloadBytes++
	} else {
		g.payloadBytes += int64(len(words)) * 8
	}
	g.count++

	if g.count == n.Nodes() {
		g.lastOr = g.orAcc
		g.orAcc = nil
		g.count = 0
		g.gen++
		// Ring allgather: each contribution crosses P-1 links.
		g.recordRing(g.payloadBytes)
		g.payloadBytes = 0
		g.cond.Broadcast()
		return g.lastOr, nil
	}
	for gen == g.gen && !g.aborted.Load() {
		g.cond.Wait()
	}
	if g.aborted.Load() {
		return nil, nil
	}
	return g.lastOr, nil
}
