package sw

import (
	"fmt"
	"sort"
	"strings"
)

// RegMsg is one 256-bit register-bus message: four 64-bit words. The shuffle
// layer packs (destination, payload) pairs into these words.
type RegMsg struct {
	Data [4]uint64
}

// AnySender is the wildcard source for Recv operations.
const AnySender = -1

// Op is one architectural operation a CPE performs. Exactly one Op is in
// flight per CPE; Send and Recv are synchronous (rendezvous), matching the
// register bus's "synchronous explicit messaging".
type Op interface{ isOp() }

// OpSend transfers one register message to another CPE in the same mesh row
// or column. It blocks until the destination executes a matching Recv.
type OpSend struct {
	Dst int
	Msg RegMsg
}

// OpRecv waits for a register message from the given CPE (or AnySender).
type OpRecv struct {
	From int
}

// OpCompute occupies the CPE for a fixed number of cycles.
type OpCompute struct {
	Cycles int64
}

// OpDMARead moves Bytes from main memory to SPM in Chunk-sized requests;
// OpDMAWrite is the reverse. Both occupy the CPE for the modelled duration.
type OpDMARead struct {
	Bytes, Chunk int64
}

// OpDMAWrite moves Bytes from SPM to main memory in Chunk-sized requests.
type OpDMAWrite struct {
	Bytes, Chunk int64
}

// OpDMAWriteAsync issues a background DMA write, like the real athread
// asynchronous DMA: the CPE continues executing while the transfer drains.
// At most one transfer may be outstanding per CPE; issuing another blocks
// until the previous one completes (the double-buffering discipline real
// consumer code uses).
type OpDMAWriteAsync struct {
	Bytes, Chunk int64
}

// OpHalt retires the CPE.
type OpHalt struct{}

func (OpSend) isOp()          {}
func (OpRecv) isOp()          {}
func (OpCompute) isOp()       {}
func (OpDMARead) isOp()       {}
func (OpDMAWrite) isOp()      {}
func (OpDMAWriteAsync) isOp() {}
func (OpHalt) isOp()          {}

// CPEContext is the per-CPE view a Program sees: its identity, scratch-pad
// allocator and the most recently received message.
type CPEContext struct {
	ID       int
	SPM      *SPM
	LastMsg  RegMsg
	LastFrom int
	// Cycle is the current simulation cycle, readable by programs.
	Cycle int64
}

// Program drives one CPE. Next is called whenever the previous operation has
// completed (and once at cycle zero); returning OpHalt (or nil) retires the
// CPE. After a completed OpRecv, the received message is visible in the
// context before the following Next call.
type Program interface {
	Next(ctx *CPEContext) Op
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(ctx *CPEContext) Op

// Next implements Program.
func (f ProgramFunc) Next(ctx *CPEContext) Op { return f(ctx) }

// ClusterStats aggregates what a cluster run did, for the timing model and
// the register-bandwidth micro-benchmark.
type ClusterStats struct {
	Cycles            int64
	RegisterTransfers int64 // completed 256-bit rendezvous
	DMAReadBytes      int64
	DMAWriteBytes     int64
	ComputeCycles     int64 // summed over CPEs
}

// Seconds returns the modelled wall-clock duration of the run.
func (s ClusterStats) Seconds() float64 { return CyclesToSeconds(s.Cycles) }

// DeadlockError reports that the cluster can make no further progress while
// unhalted CPEs remain, along with the wait-for cycle (or stalled chain)
// found.
type DeadlockError struct {
	Cycle   int64
	Blocked []BlockedCPE
}

// BlockedCPE describes one CPE stuck at deadlock time.
type BlockedCPE struct {
	ID      int
	Op      string
	WaitsOn int // peer CPE ID, or AnySender for a wildcard Recv
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sw: cluster deadlock at cycle %d:", e.Cycle)
	for _, c := range e.Blocked {
		if c.WaitsOn == AnySender {
			fmt.Fprintf(&b, " [CPE %d %s any]", c.ID, c.Op)
		} else {
			fmt.Fprintf(&b, " [CPE %d %s CPE %d]", c.ID, c.Op, c.WaitsOn)
		}
	}
	return b.String()
}

// IllegalRouteError reports a register send between CPEs that share neither
// a row nor a column — forbidden by the mesh ("communications are only
// allowed between accelerator cores in the same row or column").
type IllegalRouteError struct {
	Src, Dst int
}

func (e *IllegalRouteError) Error() string {
	return fmt.Sprintf("sw: illegal register route %d(%d,%d) -> %d(%d,%d): not same row or column",
		e.Src, Row(e.Src), Col(e.Src), e.Dst, Row(e.Dst), Col(e.Dst))
}

// Cluster is a cycle-stepped simulation of one 64-CPE cluster.
type Cluster struct {
	programs [CPEsPerCluster]Program
	ctx      [CPEsPerCluster]*CPEContext
}

// NewCluster builds a cluster whose CPE i runs programs[i]. Missing entries
// halt immediately.
func NewCluster(programs []Program) *Cluster {
	c := &Cluster{}
	for i := 0; i < CPEsPerCluster; i++ {
		if i < len(programs) {
			c.programs[i] = programs[i]
		}
		c.ctx[i] = &CPEContext{ID: i, SPM: NewSPM(), LastFrom: AnySender}
	}
	return c
}

// Context exposes a CPE's context (tests use this to inspect SPM state).
func (c *Cluster) Context(id int) *CPEContext { return c.ctx[id] }

type cpeState struct {
	op        Op
	remaining int64 // countdown for Compute/DMA ops
	async     int64 // countdown of an in-flight background DMA write
	halted    bool
}

// Run steps the cluster until every CPE halts, maxCycles elapse, or a
// deadlock/illegal route is detected. It returns the accumulated statistics
// and the first error encountered.
func (c *Cluster) Run(maxCycles int64) (ClusterStats, error) {
	var (
		stats ClusterStats
		state [CPEsPerCluster]cpeState
	)

	fetch := func(i int64, s *cpeState, id int) error {
		for !s.halted && s.op == nil {
			c.ctx[id].Cycle = i
			var op Op
			if c.programs[id] != nil {
				op = c.programs[id].Next(c.ctx[id])
			}
			if op == nil {
				op = OpHalt{}
			}
			switch o := op.(type) {
			case OpHalt:
				s.halted = true
			case OpCompute:
				if o.Cycles <= 0 {
					continue // zero-length compute completes instantly
				}
				s.op, s.remaining = o, o.Cycles
			case OpDMARead:
				cyc := singleCPEDMACycles(o.Bytes, o.Chunk)
				stats.DMAReadBytes += o.Bytes
				if cyc <= 0 {
					continue
				}
				s.op, s.remaining = o, cyc
			case OpDMAWrite:
				cyc := singleCPEDMACycles(o.Bytes, o.Chunk)
				stats.DMAWriteBytes += o.Bytes
				if cyc <= 0 {
					continue
				}
				s.op, s.remaining = o, cyc
			case OpDMAWriteAsync:
				if o.Bytes <= 0 {
					continue
				}
				// Issue happens in the countdown phase, once any prior
				// background transfer has drained.
				s.op = o
			case OpSend:
				if o.Dst < 0 || o.Dst >= CPEsPerCluster || o.Dst == id {
					return fmt.Errorf("sw: CPE %d sends to invalid CPE %d", id, o.Dst)
				}
				if !SameRowOrCol(id, o.Dst) {
					return &IllegalRouteError{Src: id, Dst: o.Dst}
				}
				s.op = o
			case OpRecv:
				if o.From != AnySender && (o.From < 0 || o.From >= CPEsPerCluster) {
					return fmt.Errorf("sw: CPE %d receives from invalid CPE %d", id, o.From)
				}
				s.op = o
			default:
				return fmt.Errorf("sw: CPE %d issued unknown op %T", id, op)
			}
			break
		}
		return nil
	}

	for cycle := int64(0); ; cycle++ {
		if cycle >= maxCycles {
			stats.Cycles = cycle
			return stats, fmt.Errorf("sw: cluster exceeded %d cycles", maxCycles)
		}

		// Fetch next ops for idle CPEs.
		for id := range state {
			if err := fetch(cycle, &state[id], id); err != nil {
				stats.Cycles = cycle
				return stats, err
			}
		}

		allDone := true
		progress := false

		// Countdown compute/DMA ops and drain background DMA transfers.
		for id := range state {
			s := &state[id]
			if s.async > 0 {
				s.async--
				progress = true
			}
			if s.halted {
				if s.async > 0 {
					allDone = false
				}
				continue
			}
			allDone = false
			switch op := s.op.(type) {
			case OpCompute, OpDMARead, OpDMAWrite:
				s.remaining--
				if _, ok := s.op.(OpCompute); ok {
					stats.ComputeCycles++
				}
				progress = true
				if s.remaining <= 0 {
					s.op = nil
				}
			case OpDMAWriteAsync:
				if s.async == 0 {
					stats.DMAWriteBytes += op.Bytes
					s.async = singleCPEDMACycles(op.Bytes, op.Chunk)
					s.op = nil
					progress = true
				}
			}
		}
		if allDone {
			stats.Cycles = cycle
			return stats, nil
		}

		// Rendezvous matching, deterministic by sender ID. A CPE
		// participates in at most one transfer per cycle.
		matched := [CPEsPerCluster]bool{}
		for src := range state {
			send, ok := state[src].op.(OpSend)
			if !ok || matched[src] {
				continue
			}
			dst := send.Dst
			if matched[dst] {
				continue
			}
			recv, ok := state[dst].op.(OpRecv)
			if !ok {
				continue
			}
			if recv.From != AnySender && recv.From != src {
				continue
			}
			// Transfer completes this cycle.
			c.ctx[dst].LastMsg = send.Msg
			c.ctx[dst].LastFrom = src
			state[src].op = nil
			state[dst].op = nil
			matched[src], matched[dst] = true, true
			stats.RegisterTransfers++
			progress = true
		}

		if !progress {
			// Every unhalted CPE is blocked on a send/recv that cannot
			// match: deadlock (or starvation — indistinguishable from the
			// machine's point of view).
			stats.Cycles = cycle
			return stats, c.deadlockReport(cycle, &state)
		}
	}
}

func (c *Cluster) deadlockReport(cycle int64, state *[CPEsPerCluster]cpeState) *DeadlockError {
	err := &DeadlockError{Cycle: cycle}
	for id := range state {
		s := &state[id]
		if s.halted || s.op == nil {
			continue
		}
		switch o := s.op.(type) {
		case OpSend:
			err.Blocked = append(err.Blocked, BlockedCPE{ID: id, Op: "send->", WaitsOn: o.Dst})
		case OpRecv:
			err.Blocked = append(err.Blocked, BlockedCPE{ID: id, Op: "recv<-", WaitsOn: o.From})
		}
	}
	sort.Slice(err.Blocked, func(i, j int) bool { return err.Blocked[i].ID < err.Blocked[j].ID })
	return err
}

// singleCPEDMACycles models one CPE's chunked DMA using the calibrated
// single-CPE point of the bandwidth model.
func singleCPEDMACycles(bytes, chunk int64) int64 {
	if bytes <= 0 {
		return 0
	}
	if chunk <= 0 {
		chunk = DMASaturationChunk
	}
	return SecondsToCycles(DMATime(bytes, chunk, 1))
}
