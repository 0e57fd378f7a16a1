package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"swbfs/internal/comm"
	"swbfs/internal/fabric"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/hub_result.golden.json from the current engine")

const hubResultGolden = "testdata/hub_result.golden.json"

// goldenResult is a Result with the parent map folded into a digest.
type goldenResult struct {
	ParentSHA256 string
	Result       Result // Parent cleared
}

// hubGoldenCase is one pinned hub-prefetch run.
type hubGoldenCase struct {
	name  string
	nodes int
	tune  func(*Config)
	root  graph.Vertex // 0: the big-component root
}

// config returns the case's machine configuration.
func (tc hubGoldenCase) config() Config {
	cfg := DefaultConfig(tc.nodes)
	cfg.SuperNodeSize = 4
	tc.tune(&cfg)
	return cfg
}

// hubGoldenCases are the pinned runs: see TestHubPrefetchResultMatchesGolden.
var hubGoldenCases = []hubGoldenCase{
	{"direct/hybrid=true", 8, func(c *Config) { c.Transport = TransportDirect }, 0},
	{"direct/hybrid=false", 8, func(c *Config) { c.Transport = TransportDirect; c.DirectionOptimized = false }, 0},
	{"relay/hybrid=true", 8, func(*Config) {}, 0},
	{"relay/hybrid=false", 8, func(c *Config) { c.DirectionOptimized = false }, 0},
	{"relay/engine=mpe", 8, func(c *Config) { c.Engine = perf.EngineMPE }, 0},
	{"relay/backward=adaptive", 8, func(c *Config) { c.CodecBackward = comm.AdaptiveCodec{} }, 0},
	{"relay/nodes=64/super=8", 64, func(c *Config) { c.SuperNodeSize = 8 }, 0},
	// From root 12 the top-down levels scan edges into visited hubs
	// on both sides of slot 32, so the wire bytes move with the
	// top-down budget (32 of 256 here).
	{"direct/hubs=32+256/root=12", 8, func(c *Config) {
		c.Transport = TransportDirect
		c.HubsTopDown, c.HubsBottomUp = 32, 256
	}, 12},
	{"relay/partition=block", 8, func(c *Config) { c.Partition = PartitionBlock }, 0},
	{"relay/partition=degree-balanced", 8, func(c *Config) { c.Partition = PartitionDegreeBalanced }, 0},
	{"relay/workers=3", 8, func(c *Config) { c.Workers = 3 }, 0},
}

// TestHubPrefetchResultMatchesGolden pins the whole Result of hub-prefetch
// runs — parent map, per-level statistics, modelled time, wire bytes,
// message and connection counts — against a committed file. The first
// four cases cover both transports, hybrid and top-down only; the file was
// generated while HubSet was a map, so the hub test's data structure is
// host-side only, and forwardScan, backwardScan and hubs.exchange must see
// the same slots. The relay variants pin the MPE engine, both backward
// codecs and a 64-node machine of 8-node super nodes. The last four were
// added before the hub tests moved onto vertex bitmaps, to pin what that
// rewrite could break: a top-down hub budget smaller than the bottom-up
// one (the forward shortcut tests a strict subset of the hubs), the block
// and degree-balanced partitions (other local-to-global maps under the
// own-hub lists and the result gather), and an odd worker width.
func TestHubPrefetchResultMatchesGolden(t *testing.T) {
	g := kron(t, 12, 5)
	root := pickBigComponentRoot(t, g)
	got := map[string]goldenResult{}
	for _, tc := range hubGoldenCases {
		cfg := tc.config()
		if !cfg.HubPrefetch {
			t.Fatal("DefaultConfig no longer prefetches hubs")
		}
		r, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		start := root
		if tc.root != 0 {
			start = tc.root
		}
		res, err := r.Run(start)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range res.Parent {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], uint64(p))
			h.Write(w[:])
		}
		gr := goldenResult{hex.EncodeToString(h.Sum(nil)), *res}
		gr.Result.Parent = nil
		got[tc.name] = gr
	}

	testutil.Golden(t, hubResultGolden, *updateGolden, got)
}

// TestTermsRepriceHubGolden re-prices every level of every committed hub
// result through perf.Model.Terms and gets the recorded Time and GTEPS bit
// for bit: the term split is the model itself, not an approximation of it.
func TestTermsRepriceHubGolden(t *testing.T) {
	data, err := os.ReadFile(hubResultGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenResult
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for _, tc := range hubGoldenCases {
		cfg := tc.config()
		topo, err := fabric.NewTopology(cfg.Nodes, cfg.SuperNodeSize)
		if err != nil {
			t.Fatal(err)
		}
		m := perf.NewModel(topo, cfg.Engine)
		res := golden[tc.name].Result
		var total float64
		for _, s := range res.Levels {
			total += m.Terms(s).Total()
		}
		gteps := float64(res.TraversedEdges) / total / 1e9
		if math.Float64bits(total) != math.Float64bits(res.Time) || math.Float64bits(gteps) != math.Float64bits(res.GTEPS) {
			t.Errorf("%s: re-priced %v s / %v GTEPS, recorded %v / %v", tc.name, total, gteps, res.Time, res.GTEPS)
		}
	}
}

// TestChargedCollectivesPerLevel pins what a BFS level charges on the
// modelled clock's collective terms: the one frontier-statistics allreduce
// (nf, mf, mu), plus the hub allgather with hub prefetch — on both
// transports, hybrid and top-down only. Level statistics fold from
// per-node slots behind host-only rendezvous, which cost nothing.
func TestChargedCollectivesPerLevel(t *testing.T) {
	g := kron(t, 10, 3)
	root := pickBigComponentRoot(t, g)
	for _, transport := range []Transport{TransportDirect, TransportRelay} {
		for _, hybrid := range []bool{true, false} {
			for _, hubs := range []bool{true, false} {
				cfg := DefaultConfig(8)
				cfg.SuperNodeSize = 4
				cfg.Transport, cfg.DirectionOptimized, cfg.HubPrefetch = transport, hybrid, hubs
				r, err := NewRunner(cfg, g)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run(root)
				if err != nil {
					t.Fatal(err)
				}
				want := int64(1)
				if hubs {
					want++
				}
				if hybrid && res.BottomUpLevels == 0 {
					t.Fatalf("%s hybrid: no bottom-up level to pin", transport)
				}
				for _, s := range res.Levels {
					if s.Net.CollectiveOps != want {
						t.Errorf("%s hybrid=%t hubs=%t level %d (%s): %d charged collectives, want %d",
							transport, hybrid, hubs, s.Level, s.Direction, s.Net.CollectiveOps, want)
					}
				}
			}
		}
	}
}
