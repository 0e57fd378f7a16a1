package shuffle

import "swbfs/internal/sw"

// meshStallFactor derates the consumer stage for rendezvous stalls; see
// ModelSeconds.
const meshStallFactor = 0.70

// ModelSeconds is the closed-form pipeline model of a shuffle pass. The
// stage throughputs:
//
//   - producers DMA-read input at their single-CPE curve, capped at the
//     cluster's read share (half the DMA peak — every byte is also written);
//   - consumers alternate one register receive per record with batched
//     DMA writes, which is the measured bottleneck;
//   - routers pass through two register events per crossing record.
//
// With the default layout this lands near the paper's measured 10 GB/s,
// under the 14.5 GB/s theoretical half-peak ceiling.
func ModelSeconds(layout Layout, records int64) float64 {
	if records <= 0 {
		return 0
	}
	perCPE := sw.DMABandwidth(sw.DMASaturationChunk, 1)

	readBW := float64(layout.NumProducers()) * perCPE
	if half := sw.ShuffleTheoreticalBandwidth; readBW > half {
		readBW = half
	}

	// Consumer cadence: BatchRecords receives (1 cycle each) then one
	// 256-byte DMA write, derated by the rendezvous stall factor — senders
	// and receivers must align on the synchronous register bus, so the
	// ideal cadence is never reached. The factor is calibrated against the
	// paper's measurement of 10 GB/s out of the 14.5 GB/s ceiling.
	writeCycles := float64(sw.DMACycles(sw.DMASaturationChunk, sw.DMASaturationChunk, 1))
	cyclesPerBatch := float64(BatchRecords) + writeCycles
	consumerBW := meshStallFactor * float64(layout.NumConsumers()) *
		float64(BatchRecords*RecordBytes) / cyclesPerBatch * sw.ClockHz
	if half := sw.ShuffleTheoreticalBandwidth; consumerBW > half {
		consumerBW = half
	}

	// Routers handle ~7/8 of records twice (recv+send, one cycle each).
	routerBW := float64(layout.NumRouters()) * float64(RecordBytes) / 2 * sw.ClockHz * 8 / 7

	bw := readBW
	if consumerBW < bw {
		bw = consumerBW
	}
	if routerBW < bw {
		bw = routerBW
	}
	return float64(records*RecordBytes) / bw
}

// ModelBandwidth returns the modelled steady-state shuffle bandwidth in
// bytes/second for the layout.
func ModelBandwidth(layout Layout) float64 {
	const probe = 1 << 20
	return float64(int64(probe)*RecordBytes) / ModelSeconds(layout, probe)
}
