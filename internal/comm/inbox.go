package comm

import "sync"

// Inbox is an unbounded MPSC queue of batches. Unbounded buffering mirrors
// eager MPI messaging (the sender never blocks on the receiver) and makes
// the functional simulation immune to channel-capacity deadlocks — the
// real machine's deadlock hazards live on the register mesh (modelled in
// internal/sw), not in MPI.
//
// Producers append to queue under the mutex. The single consumer pops from
// out, which only it touches, and takes the mutex only to swap the two once
// out runs dry: one acquisition per burst of arrivals, not one per batch.
type Inbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Batch
	waiting bool // the consumer is parked in Pop
	closed  bool

	out  []Batch // consumer-private: popped from head
	head int
}

// NewInbox returns an empty open inbox.
func NewInbox() *Inbox {
	in := &Inbox{}
	in.cond = sync.NewCond(&in.mu)
	return in
}

// Push enqueues a batch. Pushes to a closed inbox are dropped: closure
// models the simulated job tearing down (e.g. after an MPI memory crash),
// when in-flight traffic goes nowhere.
func (in *Inbox) Push(b Batch) {
	in.mu.Lock()
	if !in.closed {
		in.queue = append(in.queue, b)
		if in.waiting {
			in.cond.Signal()
		}
	}
	in.mu.Unlock()
}

// Pop dequeues the next batch, blocking until one is available or the inbox
// is closed. The second result is false when the inbox is closed and
// drained.
func (in *Inbox) Pop() (Batch, bool) {
	if in.head == len(in.out) {
		in.mu.Lock()
		for len(in.queue) == 0 && !in.closed {
			in.waiting = true
			in.cond.Wait()
		}
		in.waiting = false
		// The drained slice becomes the producers' next queue.
		in.out, in.queue, in.head = in.queue, in.out[:0], 0
		in.mu.Unlock()
		if len(in.out) == 0 {
			return Batch{}, false
		}
	}
	b := in.out[in.head]
	in.out[in.head] = Batch{} // release references
	in.head++
	return b, true
}

// Close wakes all blocked consumers; subsequent Pops drain the queue then
// report closure.
func (in *Inbox) Close() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closed = true
	in.cond.Broadcast()
}

// reopen empties the quiescent inbox for the next run. What a run left
// queued (the second copy of a duplicated final End, bare or carried by a
// data batch) is dropped, never recycled: it shares its payload with the
// copy already consumed.
func (in *Inbox) reopen() {
	in.mu.Lock()
	defer in.mu.Unlock()
	clear(in.queue)
	clear(in.out[in.head:])
	in.queue, in.out, in.head = in.queue[:0], in.out[:0], 0
	in.closed = false
}

// Len reports the queued batch count (for tests and diagnostics). Like
// Pop, it belongs to the consumer.
func (in *Inbox) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.queue) + len(in.out) - in.head
}
