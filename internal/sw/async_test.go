package sw

import "testing"

// TestAsyncDMAOverlapsCompute: a background write must not occupy the CPE —
// compute proceeds while the transfer drains, and the cluster only retires
// once the transfer completes.
func TestAsyncDMAOverlapsCompute(t *testing.T) {
	writeCycles := singleCPEDMACycles(4096, 256)
	if writeCycles < 1000 {
		t.Fatalf("test premise broken: write only %d cycles", writeCycles)
	}
	programs := make([]Program, CPEsPerCluster)
	programs[0] = &seqProgram{ops: []Op{
		OpDMAWriteAsync{Bytes: 4096, Chunk: 256},
		OpCompute{Cycles: 10},
	}}
	stats, err := NewCluster(programs).Run(1 << 22)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The run must last as long as the async write (it outlives the
	// compute), proving the write kept draining past the halt.
	if stats.Cycles < writeCycles {
		t.Fatalf("cluster retired at %d cycles before the %d-cycle transfer drained",
			stats.Cycles, writeCycles)
	}
	if stats.DMAWriteBytes != 4096 {
		t.Fatalf("DMAWriteBytes = %d", stats.DMAWriteBytes)
	}
	if stats.ComputeCycles != 10 {
		t.Fatalf("ComputeCycles = %d — compute did not run alongside the transfer", stats.ComputeCycles)
	}
}

// TestAsyncDMASecondIssueBlocks: only one transfer may be outstanding;
// issuing a second blocks until the first drains, roughly doubling the run.
func TestAsyncDMASecondIssueBlocks(t *testing.T) {
	one := func(n int) int64 {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = OpDMAWriteAsync{Bytes: 4096, Chunk: 256}
		}
		programs := make([]Program, CPEsPerCluster)
		programs[0] = &seqProgram{ops: ops}
		stats, err := NewCluster(programs).Run(1 << 22)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return stats.Cycles
	}
	single, double := one(1), one(2)
	if double < single*19/10 {
		t.Fatalf("two async writes took %d cycles vs %d for one — no serialization", double, single)
	}
}

func TestAsyncDMAZeroBytesNoop(t *testing.T) {
	programs := make([]Program, CPEsPerCluster)
	programs[0] = &seqProgram{ops: []Op{OpDMAWriteAsync{Bytes: 0, Chunk: 256}}}
	stats, err := NewCluster(programs).Run(1000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.DMAWriteBytes != 0 {
		t.Fatal("zero-byte async write recorded bytes")
	}
}

// TestAsyncDMAReceiverAvailability is the property the shuffle consumers
// exploit: a CPE with an in-flight background write can still receive
// register messages.
func TestAsyncDMAReceiverAvailability(t *testing.T) {
	var got bool
	programs := make([]Program, CPEsPerCluster)
	programs[0] = &seqProgram{ops: []Op{
		OpDMAWriteAsync{Bytes: 65536, Chunk: 256}, // long transfer
		OpRecv{From: 1},
	}, onRecv: func(from int, msg RegMsg) { got = from == 1 }}
	programs[1] = &seqProgram{ops: []Op{OpSend{Dst: 0, Msg: RegMsg{}}}}
	stats, err := NewCluster(programs).Run(1 << 22)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !got {
		t.Fatal("receive did not complete")
	}
	// The rendezvous happened within a few cycles, far before the
	// transfer drained.
	if stats.RegisterTransfers != 1 {
		t.Fatalf("RegisterTransfers = %d", stats.RegisterTransfers)
	}
}

func TestClusterStatsDerived(t *testing.T) {
	s := ClusterStats{Cycles: int64(ClockHz), RegisterTransfers: 1000}
	if s.Seconds() != 1.0 {
		t.Fatalf("Seconds = %v", s.Seconds())
	}
}

func TestDMACycles(t *testing.T) {
	if DMACycles(0, 256, 64) != 0 {
		t.Fatal("zero bytes should take zero cycles")
	}
	c1 := DMACycles(1<<20, 256, 64)
	c2 := DMACycles(1<<20, 256, 1)
	if c2 <= c1 {
		t.Fatal("single CPE must be slower than a full cluster")
	}
}
