package perf

import (
	"testing"

	"swbfs/internal/fabric"
)

func topo(t *testing.T, nodes, super int) fabric.Topology {
	t.Helper()
	tp, err := fabric.NewTopology(nodes, super)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestEngineBandwidthRatio(t *testing.T) {
	// Figure 11's headline: "properly used CPE clusters can improve
	// performance by a factor of 10".
	ratio := EngineCPE.Bandwidth() / EngineMPE.Bandwidth()
	if ratio < 6 || ratio > 16 {
		t.Fatalf("CPE/MPE bandwidth ratio %.1f outside the ~10x envelope", ratio)
	}
}

func TestLevelTimeMonotonicInWork(t *testing.T) {
	m := NewModel(topo(t, 64, 16), EngineCPE)
	base := LevelStats{MaxNodeProcessedBytes: 1 << 20, MaxNodeSentBytes: 1 << 20, Rounds: 1}
	bigger := base
	bigger.MaxNodeProcessedBytes *= 4
	bigger.MaxNodeSentBytes *= 4
	if m.LevelTime(bigger) <= m.LevelTime(base) {
		t.Fatal("more work must take longer")
	}
}

func TestPerMessageOverheadDominatesSmallMessages(t *testing.T) {
	// The direct transport's Theta(P) tiny messages per node: at scale,
	// message count (not bytes) must dominate the level time.
	m := NewModel(topo(t, 4096, 256), EngineMPE)
	few := LevelStats{MaxNodeSentBytes: 1 << 10, MaxNodeMessages: 8, Rounds: 1}
	many := LevelStats{MaxNodeSentBytes: 1 << 10, MaxNodeMessages: 4096, Rounds: 1}
	tFew, tMany := m.LevelTime(few), m.LevelTime(many)
	if tMany < 5*tFew {
		t.Fatalf("4096 small messages (%.2e s) should dwarf 8 (%.2e s)", tMany, tFew)
	}
}

func TestCentralNetworkBound(t *testing.T) {
	// Inter-super traffic is throttled by the 1:4 oversubscribed central
	// switches; the same bytes within super nodes are cheaper.
	tp := topo(t, 512, 256)
	m := NewModel(tp, EngineCPE)
	const bytes = 512 << 20
	var inter LevelStats
	inter.Net.Bytes[fabric.InterSuper] = bytes
	inter.Rounds = 1
	var intra LevelStats
	intra.Net.Bytes[fabric.IntraSuper] = bytes
	intra.Rounds = 1
	if m.LevelTime(inter) <= m.LevelTime(intra) {
		t.Fatal("central network must be the slower path")
	}
}

func TestGTEPS(t *testing.T) {
	m := NewModel(topo(t, 16, 4), EngineCPE)
	levels := []LevelStats{
		{MaxNodeProcessedBytes: 1 << 24, MaxNodeSentBytes: 1 << 22, Rounds: 2},
		{MaxNodeProcessedBytes: 1 << 26, MaxNodeSentBytes: 1 << 24, Rounds: 2},
	}
	total := m.TotalTime(levels)
	if total <= 0 {
		t.Fatal("no time modelled")
	}
	const edges = int64(1) << 28
	if g := m.GTEPS(edges, levels); g != float64(edges)/total/1e9 {
		t.Fatalf("GTEPS inconsistent: %v", g)
	}
	if m.GTEPS(edges, nil) != 0 {
		t.Fatal("GTEPS of an empty run should be 0")
	}
}

func TestCPEPaysNotification(t *testing.T) {
	tp := topo(t, 4, 4)
	cpe := NewModel(tp, EngineCPE)
	s := LevelStats{ModuleInvocations: 1000, Rounds: 1}
	withNotify := cpe.LevelTime(s)
	s.ModuleInvocations = 0
	without := cpe.LevelTime(s)
	if withNotify <= without {
		t.Fatal("module dispatches must cost notification latency on CPE")
	}
	// MPE processing needs no cluster hand-off.
	mpe := NewModel(tp, EngineMPE)
	s.ModuleInvocations = 1000
	if mpe.LevelTime(s) != mpe.LevelTime(LevelStats{Rounds: 1}) {
		t.Fatal("MPE must not pay CPE notification latency")
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 40960: 16}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestModuleSplitUsesScheduler(t *testing.T) {
	tp := topo(t, 4, 4)
	cpe := NewModel(tp, EngineCPE)

	// Four equal modules on four clusters run in parallel: the split
	// version must be faster than the serial blob.
	blob := LevelStats{MaxNodeProcessedBytes: 4 << 20, Rounds: 1}
	split := blob
	split.ModuleBytes = []int64{1 << 20, 1 << 20, 1 << 20, 1 << 20}
	if cpe.LevelTime(split) >= cpe.LevelTime(blob) {
		t.Fatalf("module split (%v) not faster than serial (%v)",
			cpe.LevelTime(split), cpe.LevelTime(blob))
	}

	// The MPE engine ignores the split (no clusters to map onto).
	mpe := NewModel(tp, EngineMPE)
	if mpe.LevelTime(split) != mpe.LevelTime(blob) {
		t.Fatal("MPE engine should ignore ModuleBytes")
	}
}

func TestModelString(t *testing.T) {
	m := NewModel(topo(t, 8, 4), EngineMPE)
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

// TestTermsBound: each side of the model bounds the level it dominates,
// and the collective-latency term is log2(P) tree latencies per charged
// collective.
func TestTermsBound(t *testing.T) {
	m := NewModel(topo(t, 512, 256), EngineMPE)
	var central LevelStats
	central.Net.Bytes[fabric.InterSuper] = 512 << 20
	for _, tc := range []struct {
		name  string
		s     LevelStats
		bound string
	}{
		{"compute", LevelStats{MaxNodeProcessedBytes: 1 << 30}, BoundCompute},
		{"messages", LevelStats{MaxNodeMessages: 4096}, BoundInjection},
		{"central", central, BoundCentral},
	} {
		if got := m.Terms(tc.s).Bound; got != tc.bound {
			t.Errorf("%s-heavy level bound by %q, want %q", tc.name, got, tc.bound)
		}
	}
	var s LevelStats
	s.Net.CollectiveOps = 2
	if got, want := m.Terms(s).CollectiveLatency, 9*fabric.IntraSuperLatency*2; got != want {
		t.Errorf("2 collectives on 512 nodes: latency %v, want %v", got, want)
	}
}
