package fabric

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestTopologyBasics(t *testing.T) {
	topo, err := NewTopology(1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSuperNodes() != 4 {
		t.Fatalf("NumSuperNodes = %d, want 4", topo.NumSuperNodes())
	}
	if topo.SuperNode(0) != 0 || topo.SuperNode(255) != 0 || topo.SuperNode(256) != 1 {
		t.Fatal("SuperNode boundaries wrong")
	}
	if topo.Classify(3, 3) != Loopback {
		t.Error("self message should be loopback")
	}
	if topo.Classify(3, 200) != IntraSuper {
		t.Error("same super node should be intra-super")
	}
	if topo.Classify(3, 300) != InterSuper {
		t.Error("different super nodes should be inter-super")
	}
}

func TestTopologyDefaults(t *testing.T) {
	topo, err := NewTopology(40960, 0)
	if err != nil {
		t.Fatal(err)
	}
	if topo.SuperSize != SuperNodeSize {
		t.Fatalf("default super size = %d, want %d", topo.SuperSize, SuperNodeSize)
	}
	// 40,960 nodes / 256 = 160 super nodes, as published.
	if topo.NumSuperNodes() != 160 {
		t.Fatalf("NumSuperNodes = %d, want 160", topo.NumSuperNodes())
	}
}

func TestTopologyRejectsBadNodes(t *testing.T) {
	if _, err := NewTopology(0, 4); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := NewTopology(-5, 4); err == nil {
		t.Fatal("negative nodes accepted")
	}
}

func TestCentralBandwidthOversubscribed(t *testing.T) {
	topo, _ := NewTopology(1024, 256)
	full := float64(topo.Nodes) * EffectiveNodeBandwidth
	if got := topo.CentralBandwidth(); got != full/OversubscriptionRatio {
		t.Fatalf("central bandwidth %.2e, want quarter of %.2e", got, full)
	}
}

func TestLatencyOrdering(t *testing.T) {
	if IntraSuperLatency <= 0 || IntraSuperLatency >= InterSuperLatency {
		t.Errorf("latencies %g / %g: the central network must be slower than a super node",
			IntraSuperLatency, InterSuperLatency)
	}
}

func TestClassifyProperty(t *testing.T) {
	f := func(nodesSeed, superSeed uint8, a, b uint16) bool {
		nodes := int(nodesSeed)%512 + 1
		super := int(superSeed)%32 + 1
		topo, err := NewTopology(nodes, super)
		if err != nil {
			return false
		}
		src, dst := int(a)%nodes, int(b)%nodes
		class := topo.Classify(src, dst)
		switch {
		case src == dst:
			return class == Loopback
		case src/super == dst/super:
			return class == IntraSuper
		default:
			return class == InterSuper
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Record(IntraSuper, 10)
				c.Record(InterSuper, 20)
				c.RecordCollective(IntraSuper, 5)
				c.RecordCollectiveOp()
			}
		}()
	}
	wg.Wait()
	if c.Bytes(IntraSuper) != 80000 || c.Messages(IntraSuper) != 8000 {
		t.Fatalf("intra-super: %d B / %d msgs", c.Bytes(IntraSuper), c.Messages(IntraSuper))
	}
	if c.Bytes(InterSuper) != 160000 {
		t.Fatalf("inter-super bytes = %d", c.Bytes(InterSuper))
	}
	if c.CollectiveBytes() != 40000 || c.CollectiveOps() != 8000 {
		t.Fatal("collective accounting wrong")
	}
	if c.NetworkBytes() != 80000+160000+40000 {
		t.Fatalf("NetworkBytes = %d", c.NetworkBytes())
	}
	if c.NetworkMessages() != 16000 {
		t.Fatalf("NetworkMessages = %d", c.NetworkMessages())
	}
}

// TestCollectiveLinkClassAttribution is the regression test for the
// reconciliation bug: collective traffic used to be recorded class-less,
// so NetworkBytes counted a single-node "collective" (pure loopback) as
// wire traffic and per-class sums never matched the totals.
func TestCollectiveLinkClassAttribution(t *testing.T) {
	var c Counters
	c.RecordCollective(Loopback, 16)
	c.RecordCollectiveOp()
	if c.NetworkBytes() != 0 {
		t.Fatalf("loopback collective counted as network bytes: %d", c.NetworkBytes())
	}
	if c.CollectiveBytes() != 16 || c.CollectiveOps() != 1 {
		t.Fatalf("collective totals: %d B / %d ops", c.CollectiveBytes(), c.CollectiveOps())
	}

	c.RecordCollective(IntraSuper, 100)
	c.RecordCollective(InterSuper, 30)
	c.RecordCollectiveOp()
	// Per-class collective bytes must sum to the aggregate...
	sum := c.CollectiveBytesOn(Loopback) + c.CollectiveBytesOn(IntraSuper) + c.CollectiveBytesOn(InterSuper)
	if sum != c.CollectiveBytes() {
		t.Fatalf("per-class collective sum %d != aggregate %d", sum, c.CollectiveBytes())
	}
	// ...and only the wire share reconciles into NetworkBytes.
	if got := c.NetworkBytes(); got != 130 {
		t.Fatalf("NetworkBytes = %d, want 130 (wire collective share only)", got)
	}

	s := c.Snapshot()
	if s.CollectiveWireBytes() != 130 || s.NetworkBytes() != 130 {
		t.Fatalf("snapshot wire share %d / network %d, want 130 / 130",
			s.CollectiveWireBytes(), s.NetworkBytes())
	}
	if s.Collective[Loopback] != 16 {
		t.Fatalf("snapshot loopback collective = %d, want 16", s.Collective[Loopback])
	}
}

func TestSnapshotSub(t *testing.T) {
	var c Counters
	c.Record(IntraSuper, 100)
	before := c.Snapshot()
	c.Record(IntraSuper, 50)
	c.Record(Loopback, 7)
	c.RecordCollective(InterSuper, 3)
	c.RecordCollectiveOp()
	delta := c.Snapshot().Sub(before)
	if delta.Bytes[IntraSuper] != 50 || delta.Messages[IntraSuper] != 1 {
		t.Fatalf("delta intra = %d B / %d msgs", delta.Bytes[IntraSuper], delta.Messages[IntraSuper])
	}
	if delta.Bytes[Loopback] != 7 {
		t.Fatal("loopback delta wrong")
	}
	if delta.CollectiveBytes != 3 || delta.CollectiveOps != 1 {
		t.Fatal("collective delta wrong")
	}
	if delta.String() == "" {
		t.Fatal("empty render")
	}
}
