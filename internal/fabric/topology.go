// Package fabric models Sunway TaihuLight's interconnect: a two-level fat
// tree whose bottom level ("super nodes") connects 256 nodes at full
// bisection bandwidth over FDR InfiniBand, and whose top level (the central
// switching network) connects super nodes at a 1:4 oversubscription ratio
// (Section 3.3). The package classifies traffic by the link level it
// crosses and accumulates byte/message counters that the timing model folds
// into per-level BFS times.
//
// All traffic — point-to-point and collective alike — is attributed to a
// link class, so per-class byte counts always reconcile with the
// NetworkBytes total. Snapshot.AddTo registers a snapshot's counters into
// an obs.Registry under the comm.* metric names (see
// docs/OBSERVABILITY.md).
package fabric

import "fmt"

// Physical constants from Section 3.3 and the Section 4.4 measurement.
const (
	// SuperNodeSize is the number of nodes per super node on the real
	// machine (256, full bisection within).
	SuperNodeSize = 256

	// OversubscriptionRatio is the central switching network's ratio: it
	// provides a quarter of the bandwidth a fully connected network would.
	OversubscriptionRatio = 4

	// LinkBandwidth is the raw FDR InfiniBand NIC rate (56 Gb/s).
	LinkBandwidth = 56e9 / 8

	// EffectiveNodeBandwidth is the per-node bandwidth the paper measures
	// for large messages with MPI ("both achieve an average 1.2 GB/s per
	// node") — the number the timing model uses for injection.
	EffectiveNodeBandwidth = 1.2e9

	// IntraSuperLatency and InterSuperLatency are per-message network
	// latencies for the two fat-tree levels ("high-bandwidth and
	// low-latency network" within a super node; the central network adds
	// hops). Values follow typical FDR fat-tree deployments.
	IntraSuperLatency = 2e-6
	InterSuperLatency = 5e-6
)

// LinkClass says which part of the machine a message crosses.
type LinkClass int

const (
	// Loopback: source and destination are the same node; no network.
	Loopback LinkClass = iota
	// IntraSuper: both nodes in one super node — full bisection bandwidth.
	IntraSuper
	// InterSuper: the message crosses the 1:4 oversubscribed central
	// switching network.
	InterSuper
	numLinkClasses
)

// NumLinkClasses is the number of distinct LinkClass values, for callers
// that keep per-class tables.
const NumLinkClasses = int(numLinkClasses)

func (c LinkClass) String() string {
	switch c {
	case Loopback:
		return "loopback"
	case IntraSuper:
		return "intra-super"
	case InterSuper:
		return "inter-super"
	default:
		return fmt.Sprintf("linkclass(%d)", int(c))
	}
}

// Topology is a scaled instance of the machine's fat tree: Nodes nodes in
// super nodes of SuperSize. Scaled-down functional runs use small SuperSize
// values so that both link classes are exercised at laptop scale.
type Topology struct {
	Nodes     int
	SuperSize int
}

// NewTopology builds a topology; SuperSize defaults to the machine's 256
// when zero or negative.
func NewTopology(nodes, superSize int) (Topology, error) {
	if nodes <= 0 {
		return Topology{}, fmt.Errorf("fabric: %d nodes", nodes)
	}
	if superSize <= 0 {
		superSize = SuperNodeSize
	}
	return Topology{Nodes: nodes, SuperSize: superSize}, nil
}

// SuperNode returns the super node index of a node.
func (t Topology) SuperNode(node int) int { return node / t.SuperSize }

// NumSuperNodes returns how many (possibly partially filled) super nodes
// the topology has.
func (t Topology) NumSuperNodes() int {
	return (t.Nodes + t.SuperSize - 1) / t.SuperSize
}

// Classify returns the link class of a src->dst message.
func (t Topology) Classify(src, dst int) LinkClass {
	switch {
	case src == dst:
		return Loopback
	case t.SuperNode(src) == t.SuperNode(dst):
		return IntraSuper
	default:
		return InterSuper
	}
}

// CentralBandwidth returns the aggregate bandwidth of the central switching
// network for this topology: a quarter of the sum of per-node injection
// bandwidth (the 1:4 oversubscription).
func (t Topology) CentralBandwidth() float64 {
	return float64(t.Nodes) * EffectiveNodeBandwidth / OversubscriptionRatio
}
