package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"testing"

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
// runs — parent map, per-level statistics, modelled time — on both
// transports, hybrid and top-down only, against a file generated while
// HubSet was a map: the hub test's data structure is host-side only, and
// forwardScan, backwardScan and localHubWords must see the same slots.
func TestHubPrefetchResultMatchesGolden(t *testing.T) {
	g := kron(t, 12, 5)
	root := pickBigComponentRoot(t, g)
	got := map[string]goldenResult{}
	for _, transport := range []Transport{TransportDirect, TransportRelay} {
		for _, hybrid := range []bool{true, false} {
			cfg := DefaultConfig(8)
			cfg.SuperNodeSize = 4
			cfg.Transport = transport
			cfg.DirectionOptimized = hybrid
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
			got[fmt.Sprintf("%s/hybrid=%v", transport, hybrid)] = gr
		}
	}

	testutil.Golden(t, hubResultGolden, *updateGolden, got)
}
