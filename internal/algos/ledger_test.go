package algos

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

// checkLedgerFolds fails unless every level a checkpoint records equals
// the fold of its row of the work ledger: the largest node's module bytes
// in all, bytes sent, messages and invocations; for BFS the per-module
// maxima; for a round kernel the generated pairs, summed, as its edges.
func checkLedgerFolds(t *testing.T, c *ckpt.Checkpoint) {
	t.Helper()
	if len(c.Machine.Work) != len(c.Machine.Levels) {
		t.Fatalf("%d ledger rows for %d levels", len(c.Machine.Work), len(c.Machine.Levels))
	}
	var sent int64
	for i, s := range c.Machine.Levels {
		var want [4]int64 // processed, sent, messages, invocations
		var module [4]int64
		var generated int64
		for _, w := range c.Machine.Work[i] {
			want[0] = max(want[0], w.Bytes[0]+w.Bytes[1]+w.Bytes[2]+w.Bytes[3])
			want[1] = max(want[1], w.SentBytes)
			want[2] = max(want[2], w.Messages)
			want[3] = max(want[3], w.Invocations)
			for m, b := range w.Bytes {
				module[m] = max(module[m], b)
			}
			generated += w.Generated
			sent += w.SentBytes
		}
		got := [4]int64{s.MaxNodeProcessedBytes, s.MaxNodeSentBytes, s.MaxNodeMessages, s.ModuleInvocations}
		if got != want {
			t.Errorf("level %d: processed, sent, messages, invocations %v, the row folds to %v", i, got, want)
		}
		if c.Kernel == core.KernelBFS {
			if !slices.Equal(s.ModuleBytes, module[:]) {
				t.Errorf("level %d: module bytes %v, the row folds to %v", i, s.ModuleBytes, module)
			}
		} else if s.FrontierEdges != generated {
			t.Errorf("round %d: %d edges, the row generated %d pairs", i, s.FrontierEdges, generated)
		}
	}
	if sent == 0 {
		t.Error("the ledger records no sent bytes")
	}
}

// TestWorkersLedgerIsTheLevelRecord runs a hybrid BFS on both transports,
// and WCC and PageRank on relay, at widths 1 and 3. Every level's
// statistics must be the fold of its ledger row, and a run resumed from a
// mid-run checkpoint must end with the uninterrupted run's ledger and
// statistics, field for field.
func TestWorkersLedgerIsTheLevelRecord(t *testing.T) {
	g := kron(t, 9, 21)
	wg := &graph.WeightedCSR{CSR: g}
	root := testutil.FirstConnected(t, g)
	args := ckptArgs(root)
	for _, run := range []struct {
		kernel    string
		transport core.Transport
	}{
		{"bfs", core.TransportDirect},
		{"bfs", core.TransportRelay},
		{"wcc", core.TransportRelay},
		{"pagerank", core.TransportRelay},
	} {
		for _, workers := range []int{1, 3} {
			cfg := ckptMachine(run.transport)
			cfg.Workers = workers
			cfg.DirectionOptimized, cfg.HubPrefetch = true, true
			t.Run(fmt.Sprintf("%s/%s/workers=%d", run.kernel, run.transport, workers), func(t *testing.T) {
				whole := checkpointEvery(t, cfg, wg, root, run.kernel, args[run.kernel], 1)
				checkLedgerFolds(t, whole)
				if whole.Level < 3 {
					t.Fatalf("%d levels leave no mid-run boundary", whole.Level)
				}
				mid := checkpointEvery(t, cfg, wg, root, run.kernel, args[run.kernel], whole.Level/2+1)
				if mid.Level >= whole.Level {
					t.Fatalf("checkpoint at boundary %d of %d is not mid-run", mid.Level, whole.Level)
				}
				rcfg := cfg
				rcfg.CheckpointEvery = 1
				rcfg.CheckpointPath = filepath.Join(t.TempDir(), "resumed.ckpt.json")
				if _, err := resume(rcfg, wg, mid); err != nil {
					t.Fatal(err)
				}
				resumed, err := ckpt.ReadFile(rcfg.CheckpointPath)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(resumed.Machine.Work, whole.Machine.Work) {
					t.Errorf("resumed from boundary %d, the ledger differs:\n  resumed: %+v\n  whole:   %+v",
						mid.Level, resumed.Machine.Work, whole.Machine.Work)
				}
				if !reflect.DeepEqual(resumed.Machine.Levels, whole.Machine.Levels) {
					t.Errorf("resumed from boundary %d, the level statistics differ", mid.Level)
				}
			})
		}
	}
}

// TestResumedPageRankCountsCombinedPairs: a PageRank resumed from its
// round-4 checkpoint reports the pairs the uninterrupted run folded away,
// the rounds before the checkpoint included.
func TestResumedPageRankCountsCombinedPairs(t *testing.T) {
	g := kron(t, 10, 21)
	wg := &graph.WeightedCSR{CSR: g}
	combined := func(o *obs.Observer) int64 { return o.Metrics.Counter("algos.pairs.combined").Value() }

	cfg := machine(4, core.TransportRelay)
	cfg.Obs = obs.New()
	if _, err := PageRank(cfg, g, 5, 0.85); err != nil {
		t.Fatal(err)
	}
	want := combined(cfg.Obs)
	if want == 0 {
		t.Fatal("the uninterrupted run folded no pairs away")
	}

	ccfg := machine(4, core.TransportRelay)
	ccfg.CheckpointEvery = 4
	ccfg.CheckpointPath = filepath.Join(t.TempDir(), "pagerank.ckpt.json")
	if _, err := PageRank(ccfg, g, 5, 0.85); err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.ReadFile(ccfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if c.Level != 4 {
		t.Fatalf("checkpoint at round %d, want 4", c.Level)
	}
	rcfg := machine(4, core.TransportRelay)
	rcfg.Obs = obs.New()
	if _, err := resume(rcfg, wg, c); err != nil {
		t.Fatal(err)
	}
	if got := combined(rcfg.Obs); got != want {
		t.Fatalf("resumed from round 4: algos.pairs.combined = %d, the uninterrupted run's %d", got, want)
	}
}

const ledgerGolden = "testdata/ledger.golden.json"

// TestLedgerGolden pins every deterministic field of every work ledger
// entry — module bytes, invocations, MPE small batches, sent bytes and
// messages, generated and shipped pairs — of a hybrid BFS on relay with and
// without the small-message MPE path, a top-down BFS on direct, WCC on relay
// and PageRank on direct, at scale 10 on 8 nodes at width 1. Per-node
// invocations and MPE batches show nowhere else: the level statistics keep
// only the row maxima.
func TestLedgerGolden(t *testing.T) {
	g := kron(t, 10, 21)
	wg := &graph.WeightedCSR{CSR: g}
	root := testutil.FirstConnected(t, g)
	args := ckptArgs(root)
	got := map[string][]string{}
	for _, run := range []struct {
		name, kernel  string
		transport     core.Transport
		hybrid, small bool
	}{
		{"bfs-hybrid/relay/mpe", "bfs", core.TransportRelay, true, true},
		{"bfs-hybrid/relay/no-mpe", "bfs", core.TransportRelay, true, false},
		{"bfs-topdown/direct", "bfs", core.TransportDirect, false, true},
		{"wcc/relay", "wcc", core.TransportRelay, false, false},
		{"pagerank/direct", "pagerank", core.TransportDirect, false, false},
	} {
		cfg := machine(8, run.transport)
		cfg.Workers = 1
		cfg.DirectionOptimized, cfg.HubPrefetch = run.hybrid, run.hybrid
		cfg.SmallMessageMPE = run.small
		c := checkpointEvery(t, cfg, wg, root, run.kernel, args[run.kernel], 1)
		for _, row := range c.Machine.Work {
			for node, w := range row {
				got[run.name] = append(got[run.name], fmt.Sprintf("L%d n%d dir=%d bytes=%v inv=%d small=%d sent=%d msgs=%d gen=%d ship=%d",
					w.Level, node, w.Dir, w.Bytes, w.Invocations, w.SmallBatches, w.SentBytes, w.Messages, w.Generated, w.Shipped))
			}
		}
	}
	testutil.Golden(t, ledgerGolden, *updateGolden, got)
}
