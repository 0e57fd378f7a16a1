package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"testing"

	"swbfs/internal/comm"
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

// TestHubPrefetchResultMatchesGolden pins the whole Result of hub-prefetch
// runs — parent map, per-level statistics, modelled time, wire bytes,
// message and connection counts — against a committed file. The first
// four cases cover both transports, hybrid and top-down only; the file was
// generated while HubSet was a map, so the hub test's data structure is
// host-side only, and forwardScan, backwardScan and localHubWords must see
// the same slots. The relay variants pin the MPE engine, both backward
// codecs and a 64-node machine of 8-node super nodes.
func TestHubPrefetchResultMatchesGolden(t *testing.T) {
	g := kron(t, 12, 5)
	root := pickBigComponentRoot(t, g)
	cases := []struct {
		name  string
		nodes int
		tune  func(*Config)
	}{
		{"direct/hybrid=true", 8, func(c *Config) { c.Transport = TransportDirect }},
		{"direct/hybrid=false", 8, func(c *Config) { c.Transport = TransportDirect; c.DirectionOptimized = false }},
		{"relay/hybrid=true", 8, func(*Config) {}},
		{"relay/hybrid=false", 8, func(c *Config) { c.DirectionOptimized = false }},
		{"relay/engine=mpe", 8, func(c *Config) { c.Engine = perf.EngineMPE }},
		{"relay/backward=varint-delta", 8, func(c *Config) { c.CodecBackward = comm.VarintDeltaCodec{} }},
		{"relay/backward=adaptive", 8, func(c *Config) { c.CodecBackward = comm.AdaptiveCodec{} }},
		{"relay/nodes=64/super=8", 64, func(c *Config) { c.SuperNodeSize = 8 }},
	}
	got := map[string]goldenResult{}
	for _, tc := range cases {
		cfg := DefaultConfig(tc.nodes)
		cfg.SuperNodeSize = 4
		tc.tune(&cfg)
		if !cfg.HubPrefetch {
			t.Fatal("DefaultConfig no longer prefetches hubs")
		}
		r, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(root)
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
