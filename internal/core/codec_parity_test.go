package core

import (
	"reflect"
	"testing"

	"swbfs/internal/comm"
	"swbfs/internal/graph"
)

// runBFSWith builds a fresh runner for cfg and runs one rooted BFS.
func runBFSWith(t *testing.T, cfg Config, g *graph.CSR, root graph.Vertex) *Result {
	t.Helper()
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCodecParityBackwardChannel: a backward-channel codec is the
// supported deterministic configuration — the completed run under the
// adaptive codec must be bit-identical (full Result DeepEqual, modelled
// stats included) across worker widths, on both transports, and the
// parent tree and visited set must match the raw run exactly.
func TestCodecParityBackwardChannel(t *testing.T) {
	g := kron(t, 11, 6)
	root := pickBigComponentRoot(t, g)

	for _, transport := range []Transport{TransportDirect, TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			base := DefaultConfig(8)
			base.SuperNodeSize = 4
			base.Transport = transport
			base.Workers = 1
			rawRes := runBFSWith(t, base, g, root)
			checkBFSTree(t, g, root, rawRes.Parent)

			t.Run("adaptive", func(t *testing.T) {
				cfg := base
				cfg.CodecBackward = comm.AdaptiveCodec{}

				w1 := runBFSWith(t, cfg, g, root)
				cfg.Workers = 4
				w4 := runBFSWith(t, cfg, g, root)

				if !reflect.DeepEqual(w1, w4) {
					t.Fatalf("result differs between worker widths 1 and 4")
				}
				if !reflect.DeepEqual(w1.Parent, rawRes.Parent) {
					t.Fatal("parent tree differs from the raw run")
				}
				if w1.Visited != rawRes.Visited || w1.TraversedEdges != rawRes.TraversedEdges {
					t.Fatalf("coverage differs from the raw run: visited %d/%d edges %d/%d",
						w1.Visited, rawRes.Visited, w1.TraversedEdges, rawRes.TraversedEdges)
				}
				// The codec reshapes wire bytes but never the traversal:
				// level count and per-level frontiers must match raw.
				if len(w1.Levels) != len(rawRes.Levels) {
					t.Fatalf("level count %d, raw run had %d", len(w1.Levels), len(rawRes.Levels))
				}
				for i := range w1.Levels {
					if w1.Levels[i].FrontierVertices != rawRes.Levels[i].FrontierVertices ||
						w1.Levels[i].Direction != rawRes.Levels[i].Direction {
						t.Fatalf("level %d frontier/direction diverged from raw run", i)
					}
				}
			})
		})
	}
}

// TestCodecParityAllChannels: with the adaptive codec on every channel the forward
// batches of bottom-up levels are content-sensitive (reply order), so
// modelled byte totals may move — but the completed traversal itself
// (parents, visited set, level structure) must still match the raw run
// on both transports.
func TestCodecParityAllChannels(t *testing.T) {
	g := kron(t, 11, 6)
	root := pickBigComponentRoot(t, g)

	for _, transport := range []Transport{TransportDirect, TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			base := DefaultConfig(8)
			base.SuperNodeSize = 4
			base.Transport = transport
			rawRes := runBFSWith(t, base, g, root)

			t.Run("adaptive", func(t *testing.T) {
				cfg := base
				cfg.Codec = comm.AdaptiveCodec{}
				res := runBFSWith(t, cfg, g, root)
				checkBFSTree(t, g, root, res.Parent)
				if !reflect.DeepEqual(res.Parent, rawRes.Parent) {
					t.Fatal("parent tree differs from the raw run")
				}
				if res.Visited != rawRes.Visited {
					t.Fatal("visited set differs from the raw run")
				}
				if len(res.Levels) != len(rawRes.Levels) {
					t.Fatalf("level count %d, raw run had %d", len(res.Levels), len(rawRes.Levels))
				}
			})
		})
	}
}

// TestAdaptiveBackwardReducesTraffic: on a configuration with real
// bottom-up levels, the adaptive backward-channel codec must lower the
// modelled network bytes below the raw run's — the perf win the codec
// exists for.
func TestAdaptiveBackwardReducesTraffic(t *testing.T) {
	g := kron(t, 11, 6)
	root := pickBigComponentRoot(t, g)

	cfg := DefaultConfig(8)
	cfg.SuperNodeSize = 4
	rawRes := runBFSWith(t, cfg, g, root)
	if rawRes.BottomUpLevels == 0 {
		t.Fatal("configuration never went bottom-up; the comparison is vacuous")
	}

	cfg.CodecBackward = comm.AdaptiveCodec{}
	adaptRes := runBFSWith(t, cfg, g, root)
	if netBytes(adaptRes) >= netBytes(rawRes) {
		t.Fatalf("adaptive backward codec did not reduce traffic: %d vs raw %d",
			netBytes(adaptRes), netBytes(rawRes))
	}
	if adaptRes.Time >= rawRes.Time {
		t.Fatalf("adaptive backward codec did not reduce modelled time: %.9f vs raw %.9f",
			adaptRes.Time, rawRes.Time)
	}
}
