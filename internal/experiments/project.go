package experiments

import (
	"fmt"

	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/fabric"
	"swbfs/internal/perf"
)

// project extends a functional measurement to node counts the host
// cannot simulate, under the weak-scaling laws the functional runs obey:
//
//   - per-node module work and injected bytes stay constant (weak scaling
//     keeps the per-node problem fixed);
//   - per-node message counts split into a data part (constant) and a
//     termination part that scales with the peer count: P for direct
//     messaging, N+M-1 for the relay scheme — the crux of Figure 11;
//   - aggregate network bytes scale with the node count, with the measured
//     inter-super share retained;
//   - collective traffic scales with the node count (allreduce trees;
//     the hub allgather stays near-linear thanks to the empty-flag
//     optimization);
//   - level count and directions are kept from the measurement.
//
// Crash conditions are evaluated at the target scale: the SPM destination
// budget for Direct+CPE, the MPI connection memory for direct transports;
// the error is the projected crash.
func project(m *measurement, targetNodes int) (float64, error) {
	return projectWork(m, targetNodes, 1)
}

// projectWork extrapolates to targetNodes while also growing the per-node
// problem by workRatio — needed to reach the paper's operating point
// (26M vertices per node at scale 40), where levels are bandwidth-bound
// rather than latency-bound. Per-node work, injected bytes and data
// message counts scale with workRatio; termination markers and collective
// op counts do not (they depend on topology, not problem size); BFS level
// count is kept (Kronecker small-world diameters barely move with scale).
func projectWork(m *measurement, targetNodes int, workRatio float64) (float64, error) {
	if targetNodes < m.nodes {
		return 0, fmt.Errorf("experiments: projection target %d below measured %d", targetNodes, m.nodes)
	}
	if workRatio < 1 {
		return 0, fmt.Errorf("experiments: work ratio %v below 1", workRatio)
	}

	// Architectural validity at target scale.
	cfg := core.Config{
		Nodes:     targetNodes,
		Transport: m.transport,
		Engine:    m.engine,
	}
	if err := core.ValidateConfig(cfg); err != nil {
		return 0, err
	}
	if m.transport == core.TransportDirect && int64(targetNodes)*comm.MPIConnectionBytes > comm.DefaultMPIMemoryBudget {
		return 0, &comm.ErrConnMemory{Connections: targetNodes, Budget: comm.DefaultMPIMemoryBudget}
	}

	topo, err := fabric.NewTopology(targetNodes, fabric.SuperNodeSize)
	if err != nil {
		return 0, err
	}
	model := perf.NewModel(topo, m.engine)

	ratio := float64(targetNodes) / float64(m.nodes)
	// Peer counts under each topology's own group geometry: the
	// measurement grouped by the scaled-down super node, the target by
	// the machine's 256-node super node.
	basePeers := peerCount(m.transport, m.nodes, scaledSuperNodeSize)
	targetPeers := peerCount(m.transport, targetNodes, fabric.SuperNodeSize)

	scaled := make([]perf.LevelStats, len(m.levels))
	for i, s := range m.levels {
		t := s
		// Per-node work grows with the per-node problem size.
		t.MaxNodeProcessedBytes = int64(float64(s.MaxNodeProcessedBytes) * workRatio)
		t.MaxNodeSentBytes = int64(float64(s.MaxNodeSentBytes) * workRatio)
		t.ModuleInvocations = int64(float64(s.ModuleInvocations) * workRatio)
		if len(s.ModuleBytes) > 0 {
			t.ModuleBytes = make([]int64, len(s.ModuleBytes))
			for j, b := range s.ModuleBytes {
				t.ModuleBytes[j] = int64(float64(b) * workRatio)
			}
		}
		// One End per peer per channel round — carried by the last batch to
		// the peer or bare — is the fixed part; the full-quantum batches
		// before it scale with the per-node problem size.
		channels := int64(1)
		if s.Direction == core.BottomUp.String() {
			channels = 2
		}
		dataMsgs := s.MaxNodeMessages - channels*int64(basePeers)
		if dataMsgs < 0 {
			dataMsgs = 0
		}
		t.MaxNodeMessages = int64(float64(dataMsgs)*workRatio) + channels*int64(targetPeers)

		for c := range t.Net.Bytes {
			t.Net.Bytes[c] = int64(float64(s.Net.Bytes[c]) * ratio * workRatio)
			t.Net.Messages[c] = int64(float64(s.Net.Messages[c]) * ratio * workRatio)
		}
		// At machine scale nearly all cross-node traffic leaves the super
		// node under direct messaging; the relay keeps stage two local.
		// The measured split already encodes that; only rescale.
		t.Net.CollectiveBytes = int64(float64(s.Net.CollectiveBytes) * ratio)
		for c := range t.Net.Collective {
			t.Net.Collective[c] = int64(float64(s.Net.Collective[c]) * ratio)
		}
		t.Net.CollectiveOps = s.Net.CollectiveOps
		scaled[i] = t
	}

	edges := int64(float64(m.edges) * ratio * workRatio)
	return model.GTEPS(edges, scaled), nil
}

// peerCount returns the distinct peers a node exchanges termination
// markers with under the transport and group geometry.
func peerCount(t core.Transport, nodes, superSize int) int {
	if t == core.TransportRelay {
		shape := comm.DefaultGroupShape(nodes, superSize)
		return shape.MessagesPerNode()
	}
	return nodes
}
