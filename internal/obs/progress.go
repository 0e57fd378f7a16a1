package obs

import "sync"

// Live event kinds published by the BFS runner.
const (
	// EventRunStart announces a new rooted BFS.
	EventRunStart = "run-start"
	// EventLevel announces one BFS level: the direction the policy chose
	// and the frontier statistics it chose it on.
	EventLevel = "level"
	// EventRunDone announces a completed run with its headline results.
	EventRunDone = "run-done"
	// EventStraggler flags one node whose host-side level makespan
	// exceeded the all-node mean by the configured straggler factor.
	EventStraggler = "straggler"
)

// LiveEvent is one live progress update from a running BFS — what the
// /events SSE endpoint streams while a benchmark is in flight.
type LiveEvent struct {
	// Seq is a monotonically increasing sequence number assigned by the
	// broker at publish time (also the SSE event id).
	Seq  int64  `json:"seq"`
	Kind string `json:"kind"`
	Root int64  `json:"root"`

	// Kernel names the algorithm driving the run ("sssp", "wcc", ...).
	// Empty for BFS, the engine's native kernel.
	Kernel string `json:"kernel,omitempty"`

	// Level fields (EventLevel only).
	Level            int    `json:"level,omitempty"`
	Direction        string `json:"direction,omitempty"`
	FrontierVertices int64  `json:"frontier_vertices,omitempty"`
	EdgesRelaxed     int64  `json:"edges_relaxed,omitempty"`

	// Result fields (EventRunDone only).
	Visited int64   `json:"visited,omitempty"`
	GTEPS   float64 `json:"gteps,omitempty"`

	// Straggler fields (EventStraggler only): the flagged node, its
	// host-side level time and the all-node mean it exceeded.
	Node            int     `json:"node,omitempty"`
	HostSeconds     float64 `json:"host_seconds,omitempty"`
	MeanHostSeconds float64 `json:"mean_host_seconds,omitempty"`
}

// ProgressBroker fans LiveEvents out to any number of subscribers.
// Publish never blocks the simulation: a subscriber whose buffer is full
// misses events (it is a live view, not a log — the RunTraces are the
// durable record).
type ProgressBroker struct {
	mu   sync.Mutex
	seq  int64
	last LiveEvent
	subs map[chan LiveEvent]struct{}
}

// NewProgressBroker returns an empty broker.
func NewProgressBroker() *ProgressBroker {
	return &ProgressBroker{subs: make(map[chan LiveEvent]struct{})}
}

// Publish stamps ev with the next sequence number and delivers it to every
// subscriber that has buffer space.
func (b *ProgressBroker) Publish(ev LiveEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	ev.Seq = b.seq
	b.last = ev
	for ch := range b.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall the run
		}
	}
}

// Subscribe registers a new subscriber with the given buffer size (minimum
// 1) and returns its channel plus a cancel function. The latest event, if
// any, is replayed immediately so late subscribers see the current state.
func (b *ProgressBroker) Subscribe(buf int) (<-chan LiveEvent, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan LiveEvent, buf)
	b.mu.Lock()
	b.subs[ch] = struct{}{}
	if b.seq > 0 {
		ch <- b.last
	}
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		delete(b.subs, ch)
		b.mu.Unlock()
	}
	return ch, cancel
}
