package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"swbfs/internal/comm"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

// TestForwardPairsMatchCounter holds a top-down BFS's handled forward pairs
// — each node's work-ledger row, level by level — to testutil.ForwardPairs'
// serial count of the folded batches, on both transports, at two worker
// widths, at the default batch size and at one that cuts batches mid-level.
// On Direct it also holds each node's network messages, and each level's
// LevelStats.MaxNodeMessages, to testutil.DirectMessages: per peer, the full
// batches the quantum rule cuts plus one End, carried or bare. Every node
// messages every peer in every level, so none sends fewer than P-1.
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
			quantum := int(batchBytes / comm.PairBytes)
			want := testutil.ForwardPairs(g, level, cfg.Nodes, members, quantum)
			wantMsgs := testutil.DirectMessages(g, level, cfg.Nodes, quantum)
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%s/batch=%d/workers=%d", transport, batchBytes, workers)
				cfg.Workers = workers
				r, err := NewRunner(cfg, g)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run(root)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var got, msgs [][]int64
				for _, row := range r.m.Ledger() {
					pairs, sent := make([]int64, len(row)), make([]int64, len(row))
					for node, w := range row {
						pairs[node], sent[node] = w.Bytes[1]/comm.PairBytes, w.Messages
					}
					got, msgs = append(got, pairs), append(msgs, sent)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: handled forward pairs per level and node\n got %v\nwant %v", name, got, want)
				}
				if transport != TransportDirect {
					continue
				}
				if !reflect.DeepEqual(msgs, wantMsgs) {
					t.Errorf("%s: network messages per level and node\n got %v\nwant %v", name, msgs, wantMsgs)
				}
				for l, s := range res.Levels {
					if l < len(wantMsgs) && s.MaxNodeMessages != slices.Max(wantMsgs[l]) {
						t.Errorf("%s: level %d MaxNodeMessages = %d, want %d", name, l, s.MaxNodeMessages, slices.Max(wantMsgs[l]))
					}
					if floor := int64(cfg.Nodes - 1); l < len(msgs) && slices.Min(msgs[l]) < floor {
						t.Errorf("%s: level %d: a node sent %d messages, below the Direct floor of %d", name, l, slices.Min(msgs[l]), floor)
					}
				}
			}
		}
	}
}
