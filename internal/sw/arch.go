// Package sw models the SW26010 processor of Sunway TaihuLight: the
// management processing elements (MPEs), the 8x8 computing processing
// element (CPE) clusters with their scratch-pad memories and register-bus
// mesh, and the DMA engines connecting clusters to main memory.
//
// The model has two faces. Calibrated analytic curves (DMA bandwidth vs
// chunk size and CPE count, MPE memory bandwidth) reproduce the paper's
// Figure 3 and Figure 5 and drive the timing model. A cycle-stepped cluster
// simulator executes CPE "programs" against the real architectural
// constraints — register communication only within a mesh row or column,
// synchronous (rendezvous) messaging, 64 KB SPM budgets — and detects
// deadlock by wait-for-graph analysis, so the paper's contention-free
// shuffling scheme can be verified rather than assumed.
package sw

// Architecture constants from Table 1 and Section 3 of the paper.
const (
	// ClockHz is the MPE and CPE clock frequency (1.45 GHz).
	ClockHz = 1.45e9

	// MeshRows and MeshCols give the CPE cluster geometry (8x8 = 64 CPEs).
	MeshRows = 8
	MeshCols = 8
	// CPEsPerCluster is MeshRows * MeshCols.
	CPEsPerCluster = MeshRows * MeshCols

	// CGsPerNode: core groups per SW26010 CPU; each CG is 1 MPE + 1 CPE
	// cluster + 1 memory controller.
	CGsPerNode = 4

	// SPMBytes is the scratch-pad memory per CPE (64 KB).
	SPMBytes = 64 << 10
	// MPEL1DBytes and MPEL2Bytes are the MPE cache sizes.
	MPEL1DBytes = 32 << 10
	MPEL2Bytes  = 256 << 10

	// MemPerCGBytes is the DDR3 DRAM attached to each core group (8 GB).
	MemPerCGBytes = int64(8) << 30

	// InterruptLatencySeconds is the MPE system-interrupt latency (~10 us,
	// ten times a commodity CPU's) — the reason notification uses memory
	// flag polling instead of interrupts.
	InterruptLatencySeconds = 10e-6

	// MainMemoryLatencyCycles is the main-memory access latency seen by a
	// core ("around one hundred cycles").
	MainMemoryLatencyCycles = 100
)

// Measured bandwidth envelope from Figures 3 and 5 and Section 4.3.
const (
	// MPEPeakBandwidth is the maximum main-memory bandwidth one MPE
	// achieves with 256-byte batches (9.4 GB/s).
	MPEPeakBandwidth = 9.4e9

	// ClusterPeakDMABandwidth is the maximum DMA bandwidth of a full CPE
	// cluster with chunk size >= 256 bytes (28.9 GB/s) — about 10x the MPE.
	ClusterPeakDMABandwidth = 28.9e9

	// DMASaturationChunk is the chunk size at which a cluster reaches its
	// peak DMA bandwidth (Figure 3: "equal to or larger than 256 bytes").
	DMASaturationChunk = 256

	// SaturatingCPECount is the number of CPEs needed for acceptable
	// memory bandwidth at 256-byte chunks (Figure 5: 16 CPEs).
	SaturatingCPECount = 16

	// ShuffleTheoreticalBandwidth is the ceiling on register-shuffle
	// throughput: half of the DMA peak, because each shuffled byte is both
	// read and written (Section 4.3: 14.5 GB/s).
	ShuffleTheoreticalBandwidth = ClusterPeakDMABandwidth / 2

	// ShuffleMeasuredBandwidth is the register-to-register shuffle
	// bandwidth the paper measures (10 GB/s of the 14.5 theoretical).
	ShuffleMeasuredBandwidth = 10e9
)

// mpeAccessLatency is the effective per-batch overhead of MPE memory
// accesses, tuned so the MPE curve tops out at 9.4 GB/s with 256-byte
// batches (Section 3.2).
const mpeAccessLatency = 2e-9

// CyclesToSeconds converts CPE/MPE cycles to wall-clock seconds.
func CyclesToSeconds(cycles int64) float64 { return float64(cycles) / ClockHz }

// SecondsToCycles converts seconds to whole cycles (rounding up).
func SecondsToCycles(s float64) int64 {
	c := int64(s * ClockHz)
	if float64(c) < s*ClockHz {
		c++
	}
	return c
}

// SameRowOrCol reports whether two CPE IDs share a mesh row or column —
// the only pairs the register bus connects.
func SameRowOrCol(a, b int) bool {
	return a/MeshCols == b/MeshCols || a%MeshCols == b%MeshCols
}

// Row and Col decompose a CPE ID into mesh coordinates.
func Row(id int) int { return id / MeshCols }
func Col(id int) int { return id % MeshCols }

// ID composes mesh coordinates into a CPE ID.
func ID(row, col int) int { return row*MeshCols + col }
