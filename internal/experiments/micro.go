package experiments

import (
	"fmt"
	"math/rand"

	"swbfs/internal/comm"
	"swbfs/internal/fabric"
	"swbfs/internal/shuffle"
	"swbfs/internal/sw"
)

// table1 reproduces the machine specification table.
func table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Sunway TaihuLight specifications (Table 1)",
		Header: []string{"Item", "Specification"},
	}
	t.AddRow("MPE", fmt.Sprintf("%.2f GHz, %d KB L1 D-Cache, %d KB L2", sw.ClockHz/1e9, sw.MPEL1DBytes>>10, sw.MPEL2Bytes>>10))
	t.AddRow("CPE", fmt.Sprintf("%.2f GHz, %d KB SPM", sw.ClockHz/1e9, sw.SPMBytes>>10))
	t.AddRow("CG", fmt.Sprintf("1 MPE + %d CPEs + 1 MC", sw.CPEsPerCluster))
	t.AddRow("Node", fmt.Sprintf("1 CPU (%d CGs) + 4 x %d GB DDR3", sw.CGsPerNode, sw.MemPerCGBytes>>30))
	t.AddRow("Super Node", fmt.Sprintf("%d nodes, FDR %d Gbps InfiniBand", fabric.SuperNodeSize, int(fabric.LinkBandwidth*8/1e9)))
	t.AddRow("Cabinet", "4 super nodes")
	t.AddRow("TaihuLight", "40 cabinets (40,960 nodes)")
	return t
}

// fig3 reproduces the DMA bandwidth vs chunk size curve: one column for a
// full CPE cluster, one for the MPE (the 10x gap the design exploits).
func fig3() *Table {
	t := &Table{
		ID:     "fig3",
		Title:  "DMA bandwidth vs chunk size (Figure 3)",
		Header: []string{"chunk (B)", "CPE cluster (GB/s)", "MPE (GB/s)"},
	}
	for chunk := int64(8); chunk <= 16384; chunk *= 2 {
		t.AddRow(fmt.Sprint(chunk), gb(sw.ClusterDMABandwidth(chunk)), gb(sw.MPEBandwidth(chunk)))
	}
	t.AddNote("paper: cluster saturates at 28.9 GB/s for chunks >= 256 B; MPE peaks at 9.4 GB/s")
	return t
}

// fig5 reproduces the memory bandwidth vs CPE count curve at 256-byte
// chunks.
func fig5() *Table {
	t := &Table{
		ID:     "fig5",
		Title:  "Memory bandwidth vs number of CPEs, 256 B chunks (Figure 5)",
		Header: []string{"CPEs", "bandwidth (GB/s)"},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 24, 32, 48, 64} {
		t.AddRow(fmt.Sprint(n), gb(sw.DMABandwidth(256, n)))
	}
	t.AddNote("paper: 16 CPEs already generate an acceptable bandwidth")
	return t
}

// regBus reproduces the Section 4.3 register-shuffle measurement: the
// cycle-stepped producer/router/consumer mesh against the 14.5 GB/s
// theoretical ceiling and the paper's 10 GB/s measurement.
func regBus(records int) (*Table, error) {
	rng := rand.New(rand.NewSource(4317))
	recs := make([]shuffle.Record, records)
	const dests = 64
	for i := range recs {
		recs[i] = shuffle.Record{
			Dest:    rng.Intn(dests),
			Payload: [2]uint64{rng.Uint64(), rng.Uint64()},
		}
	}
	res, err := shuffle.RunMesh(shuffle.DefaultLayout(), recs, dests)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "regbus",
		Title:  "Contention-free shuffle bandwidth (Section 4.3 micro-benchmark)",
		Header: []string{"source", "bandwidth (GB/s)"},
	}
	t.AddRow("cycle-level mesh (measured)", gb(res.Throughput()))
	t.AddRow("closed-form model", gb(shuffle.ModelBandwidth(shuffle.DefaultLayout())))
	t.AddRow("theoretical ceiling (half DMA peak)", gb(sw.ShuffleTheoreticalBandwidth))
	t.AddRow("paper measurement", gb(sw.ShuffleMeasuredBandwidth))
	t.AddNote("%d records, %d destinations, %d register transfers, %d cycles",
		records, dests, res.Stats.RegisterTransfers, res.Stats.Cycles)
	return t, nil
}

// relayBW reproduces the Section 4.4 relay-overhead test: big messages sent
// directly across super nodes versus through a relay node. The relay's
// second stage rides the full-bisection super-node network
// (4x the per-node central-network share), so it hides behind stage one
// and per-node bandwidth is unchanged — the paper measures 1.2 GB/s for
// both.
func relayBW() *Table {
	const perNodeBytes = 1 << 30

	// Direct: one inter-super stage at the effective node bandwidth.
	directSeconds := float64(perNodeBytes) / fabric.EffectiveNodeBandwidth

	// Relay: stage one crosses the central network at the same rate;
	// stage two is intra-super at OversubscriptionRatio times the
	// bandwidth and overlaps stage one (pipelined), so the slower stage
	// bounds the time.
	stage1 := float64(perNodeBytes) / fabric.EffectiveNodeBandwidth
	stage2 := float64(perNodeBytes) / (fabric.EffectiveNodeBandwidth * fabric.OversubscriptionRatio)
	relaySeconds := stage1
	if stage2 > relaySeconds {
		relaySeconds = stage2
	}
	relaySeconds += fabric.IntraSuperLatency // the extra hop

	t := &Table{
		ID:     "relaybw",
		Title:  "Per-node bandwidth, direct vs via relay, big messages (Section 4.4)",
		Header: []string{"path", "bandwidth (GB/s)"},
	}
	t.AddRow("direct to destination", gb(float64(perNodeBytes)/directSeconds))
	t.AddRow("via relay node", gb(float64(perNodeBytes)/relaySeconds))
	t.AddRow("paper (both paths)", gb(fabric.EffectiveNodeBandwidth))
	t.AddNote("relay stage two rides the full-bisection super-node network and hides behind stage one")
	return t
}

// msgCount reproduces the Section 4.4 connection arithmetic: messages
// (connections) per node and the resulting MPI memory, direct vs grouped.
func msgCount() *Table {
	t := &Table{
		ID:    "msgcount",
		Title: "Connections per node and MPI memory (Section 4.4)",
		Header: []string{"nodes", "direct conns", "direct MPI mem", "group N x M",
			"relay conns", "relay MPI mem"},
	}
	for _, nodes := range []int{256, 1024, 4096, 16384, 40000} {
		shape := comm.DefaultGroupShape(nodes, 200)
		if nodes == 40000 {
			shape = comm.GroupShape{N: 200, M: 200} // the paper's example
		}
		directMem := int64(nodes) * comm.MPIConnectionBytes
		relayMem := int64(shape.MessagesPerNode()) * comm.MPIConnectionBytes
		t.AddRow(
			fmt.Sprint(nodes),
			fmt.Sprint(nodes),
			mem(directMem),
			fmt.Sprintf("%d x %d", shape.N, shape.M),
			fmt.Sprint(shape.MessagesPerNode()),
			mem(relayMem),
		)
	}
	t.AddNote("paper: 40,000 nodes -> ~4 GB direct vs ~40 MB with 200x200 groups")
	return t
}

func mem(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/float64(1<<20))
	default:
		return fmt.Sprintf("%.1f KB", float64(b)/float64(1<<10))
	}
}
