package core

import (
	"fmt"
	"reflect"
	"testing"

	"swbfs/internal/comm"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

// TestForwardPairsMatchCounter holds a top-down BFS's handled forward pairs
// — each node's work-ledger row, level by level — to testutil.ForwardPairs'
// serial count of the folded batches, on both transports, at two worker
// widths, at the default batch size and at one that cuts batches mid-level.
func TestForwardPairsMatchCounter(t *testing.T) {
	g := kron(t, 11, 5)
	root := testutil.FirstConnected(t, g)
	_, level := ReferenceBFS(g, root)
	for _, transport := range []Transport{TransportDirect, TransportRelay} {
		for _, batchBytes := range []int64{comm.DefaultBatchBytes, 1 << 10} {
			cfg := Config{Nodes: 8, SuperNodeSize: 4, Transport: transport, Engine: perf.EngineMPE, BatchBytes: batchBytes}
			members := 1
			if transport == TransportRelay {
				shape, err := shapeFor(cfg)
				if err != nil {
					t.Fatal(err)
				}
				members = shape.M
			}
			want := testutil.ForwardPairs(g, level, cfg.Nodes, members, int(batchBytes/comm.PairBytes))
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%s/batch=%d/workers=%d", transport, batchBytes, workers)
				cfg.Workers = workers
				r, err := NewRunner(cfg, g)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Run(root); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var got [][]int64
				for _, row := range r.m.Ledger() {
					pairs := make([]int64, len(row))
					for node, w := range row {
						pairs[node] = w.Bytes[1] / comm.PairBytes
					}
					got = append(got, pairs)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: handled forward pairs per level and node\n got %v\nwant %v", name, got, want)
				}
			}
		}
	}
}
