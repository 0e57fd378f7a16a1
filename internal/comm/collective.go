package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"swbfs/internal/fabric"
)

// collectiveGroup implements the blocking collectives of the simulated
// machine: sum- and max-allreduces over vectors, an OR-allgather (hub
// frontier bitmaps) and Sync, a host-only rendezvous that records nothing.
// All nodes must call the same sequence of collectives (SPMD), like MPI.
// Each generation is tagged with its first arrival's kind; a later arrival
// of another kind aborts the machine with a *ProtocolError naming both,
// instead of mixing two collectives' values.
//
// Traffic accounting: a k-element allreduce is k reduction trees (2 * 8
// bytes * P each) charged as one op; the allgather a ring where each
// node's contribution crosses P-1 links. The paper's "reduce global
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
	kind  collKind

	// acc folds the open allreduce; result holds the completed one's until
	// every waiter has read it (the next cannot complete before they all
	// arrive). The two swap at completion.
	acc    []int64
	result []int64

	orAcc  []uint64
	lastOr []uint64

	payloadBytes int64

	// err is the protocol error that aborted the group, if one did.
	err error

	// aborted is set under mu (so no waiter misses the broadcast) and read
	// without it by Network.Aborted, which every delivery calls.
	aborted atomic.Bool
}

// collOp is what a collective call computes.
type collOp uint8

const (
	opSum collOp = iota
	opMax
	opOr
	opSync
)

var opNames = [...]string{opSum: "sum", opMax: "max", opOr: "allgather-or", opSync: "sync"}

// collKind tags one generation: the op of its first arrival and the
// length of its allreduce vector.
type collKind struct {
	op  collOp
	len int
}

func (k collKind) String() string {
	if k.op == opOr || k.op == opSync {
		return opNames[k.op]
	}
	return fmt.Sprintf("%s[%d]", opNames[k.op], k.len)
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

// failLocked poisons the machine, not the process, over a protocol error
// (Network.Abort with mu held): peers waiting in the half-completed
// collective wake aborted and blocked Recvs see the closed inboxes.
func (g *collectiveGroup) failLocked(reason string) *ProtocolError {
	err := &ProtocolError{Node: -1, Src: -1, Reason: reason}
	if g.err == nil {
		g.err = err
	}
	g.net.Close()
	g.abortLocked()
	return err
}

// join enters the caller into the open generation as kind k, under mu. It
// reports false when the group is aborted: before the call (err nil), or
// by it, because k is not the kind the generation's first arrival called
// (err the *ProtocolError).
func (g *collectiveGroup) join(k collKind) (gen int64, ok bool, err error) {
	if g.aborted.Load() {
		return 0, false, nil
	}
	if g.count == 0 {
		g.kind = k
	} else if g.kind != k {
		return 0, false, g.failLocked(fmt.Sprintf("collective mismatch: %s against %s", k, g.kind))
	}
	g.count++
	return g.gen, true, nil
}

// advance completes the generation, once its last arrival published the
// result, and wakes the waiters.
func (g *collectiveGroup) advance() {
	g.count = 0
	g.gen++
	g.cond.Broadcast()
}

// wait blocks until generation gen completes; false when the group aborted.
func (g *collectiveGroup) wait(gen int64) bool {
	for gen == g.gen && !g.aborted.Load() {
		g.cond.Wait()
	}
	return !g.aborted.Load()
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

// recordTree charges one completed allreduce of k elements: 16 bytes per
// node per element, split by the link class of each tree hop, as one op.
func (g *collectiveGroup) recordTree(k int64) {
	for class, b := range g.treeBytes {
		if b*k > 0 {
			g.net.Counters.RecordCollective(fabric.LinkClass(class), b*k)
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

// reduce is every allreduce and Sync: it folds the nodes' v element-wise
// (sum or max) into every caller's v, zeroed on an aborted network. Sync
// folds nothing and records nothing.
func (n *Network) reduce(op collOp, v []int64) {
	g := n.coll
	g.mu.Lock()
	defer g.mu.Unlock()
	gen, ok, _ := g.join(collKind{op, len(v)})
	if !ok {
		clear(v)
		return
	}
	switch {
	case g.count == 1:
		g.acc = append(g.acc[:0], v...)
	case op == opMax:
		for i, x := range v {
			g.acc[i] = max(g.acc[i], x)
		}
	default:
		for i, x := range v {
			g.acc[i] += x
		}
	}
	if g.count == n.Nodes() {
		if op != opSync {
			g.acc, g.result = g.result, g.acc
			g.recordTree(int64(len(v)))
		}
		g.advance()
	} else if !g.wait(gen) {
		clear(v)
		return
	}
	copy(v, g.result)
}

// AllreduceSums replaces every element of v with its sum over all nodes'
// contributions, which must have v's length. Blocks until all nodes arrive.
func (n *Network) AllreduceSums(v []int64) { n.reduce(opSum, v) }

// AllreduceSum returns the sum of every node's contribution.
func (n *Network) AllreduceSum(value int64) int64 { return n.reduce1(opSum, value) }

// AllreduceMax returns the maximum of every node's contribution.
func (n *Network) AllreduceMax(value int64) int64 { return n.reduce1(opMax, value) }

func (n *Network) reduce1(op collOp, value int64) int64 {
	v := [1]int64{value}
	n.reduce(op, v[:])
	return v[0]
}

// Barrier blocks until every node arrives, charged as an allreduce.
func (n *Network) Barrier() { n.AllreduceSum(0) }

// Sync blocks until every node arrives, or the network aborts: a host-side
// rendezvous that orders the nodes' memory, not a modelled collective.
func (n *Network) Sync() { n.reduce(opSync, nil) }

// Err returns the *ProtocolError that aborted a collective — mismatched
// kinds or allgather lengths — or nil.
func (n *Network) Err() error {
	g := n.coll
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

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
	gen, ok, err := g.join(collKind{op: opOr})
	if !ok {
		return nil, err
	}

	if words != nil {
		if g.orAcc == nil {
			g.orAcc = make([]uint64, len(words))
		}
		if len(g.orAcc) != len(words) {
			return nil, g.failLocked(fmt.Sprintf(
				"allgather length mismatch: %d words against %d", len(words), len(g.orAcc)))
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

	if g.count == n.Nodes() {
		g.lastOr = g.orAcc
		g.orAcc = nil
		// Ring allgather: each contribution crosses P-1 links.
		g.recordRing(g.payloadBytes)
		g.payloadBytes = 0
		g.advance()
	} else if !g.wait(gen) {
		return nil, nil
	}
	return g.lastOr, nil
}
