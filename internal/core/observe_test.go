package core

import (
	"fmt"
	"testing"

	"swbfs/internal/comm"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// pickRoots returns the first n vertices with at least one edge.
func pickRoots(t *testing.T, g *graph.CSR, n int) []graph.Vertex {
	t.Helper()
	var roots []graph.Vertex
	for v := graph.Vertex(0); int64(v) < g.N && len(roots) < n; v++ {
		if g.Degree(v) > 0 {
			roots = append(roots, v)
		}
	}
	if len(roots) < n {
		t.Fatalf("graph has only %d nontrivial vertices, need %d", len(roots), n)
	}
	return roots
}

// TestTraceReconcilesWithRun is the end-to-end acceptance check for the
// observability layer: on real runs, each RunTrace's summed level times
// and byte counts must reconcile exactly with the run's reported totals.
func TestTraceReconcilesWithRun(t *testing.T) {
	g := kron(t, 10, 7)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"direct-mpe", Config{Nodes: 8, SuperNodeSize: 4, Transport: TransportDirect, Engine: perf.EngineMPE}},
		{"relay-cpe-hybrid", Config{
			Nodes: 16, SuperNodeSize: 4, Transport: TransportRelay, Engine: perf.EngineCPE,
			DirectionOptimized: true, HubPrefetch: true, SmallMessageMPE: true,
		}},
		{"single-node", Config{Nodes: 1, SuperNodeSize: 4, Transport: TransportDirect, Engine: perf.EngineMPE}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			observer := obs.New()
			tc.cfg.Obs = observer
			runner, err := NewRunner(tc.cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			roots := pickRoots(t, g, 2)
			for _, root := range roots {
				if _, err := runner.Run(root); err != nil {
					t.Fatal(err)
				}
			}

			runs := observer.Trace.Runs()
			if len(runs) != len(roots) {
				t.Fatalf("recorded %d traces, want %d", len(runs), len(roots))
			}
			for _, run := range runs {
				if err := run.Reconcile(); err != nil {
					t.Errorf("root %d: %v", run.Root, err)
				}
				if len(run.Levels) == 0 {
					t.Errorf("root %d: no level spans", run.Root)
				}
				if run.Levels[0].FrontierVertices != 1 {
					t.Errorf("root %d: level-0 frontier = %d, want 1",
						run.Root, run.Levels[0].FrontierVertices)
				}
			}

			s := observer.Metrics.Snapshot()
			if got := s.Counters["bfs.runs"]; got != int64(len(roots)) {
				t.Errorf("bfs.runs = %d, want %d", got, len(roots))
			}
			var levels int64
			for _, run := range runs {
				levels += int64(len(run.Levels))
			}
			if got := s.Counters["bfs.levels"]; got != levels {
				t.Errorf("bfs.levels = %d, traces hold %d spans", got, levels)
			}
			if s.Counters["bfs.levels.topdown"]+s.Counters["bfs.levels.bottomup"] != levels {
				t.Error("topdown + bottomup levels do not sum to bfs.levels")
			}
			if got := s.Histograms["bfs.level.frontier_vertices"]; got.Count != levels {
				t.Errorf("frontier histogram count = %d, want %d", got.Count, levels)
			}
		})
	}
}

// TestRelayBooksBalance: on relay runs — raw and adaptive codecs, one and
// three workers, hybrid and top-down — every relay node's recorded
// stage-one flow bytes in, stage-two flow bytes out and Relay span bytes
// agree on every level, so each trace reconciles; and one corrupted flow,
// or one corrupted Relay span, makes Reconcile fail.
func TestRelayBooksBalance(t *testing.T) {
	g := kron(t, 10, 7)
	roots := pickRoots(t, g, 2)
	for _, codec := range []comm.PayloadCodec{nil, comm.AdaptiveCodec{}} {
		for _, workers := range []int{1, 3} {
			for _, hybrid := range []bool{true, false} {
				cfg := Config{
					Nodes: 16, SuperNodeSize: 4, Transport: TransportRelay, Engine: perf.EngineCPE,
					DirectionOptimized: hybrid, HubPrefetch: true, SmallMessageMPE: true,
					Workers: workers, Codec: codec, Obs: obs.New(),
				}
				t.Run(fmt.Sprintf("codec=%v/workers=%d/hybrid=%v", codec != nil, workers, hybrid), func(t *testing.T) {
					runner, err := NewRunner(cfg, g)
					if err != nil {
						t.Fatal(err)
					}
					for _, root := range roots {
						if _, err := runner.Run(root); err != nil {
							t.Fatal(err)
						}
					}
					for _, run := range cfg.Obs.Trace.Runs() {
						if err := run.Reconcile(); err != nil {
							t.Fatalf("root %d: %v", run.Root, err)
						}
						if len(run.Flows) == 0 {
							t.Fatalf("root %d: a relay run recorded no flows", run.Root)
						}
						for i := range run.Flows {
							bad := run
							bad.Flows = append([]obs.FlowLink(nil), run.Flows...)
							bad.Flows[i].Bytes += comm.PairBytes
							if bad.Reconcile() == nil {
								t.Fatalf("root %d: Reconcile accepts corrupted flow %+v", run.Root, bad.Flows[i])
							}
						}
						for i, sp := range run.Spans {
							if sp.Module != obs.ModuleRelay {
								continue
							}
							bad := run
							bad.Spans = append([]obs.ModuleSpan(nil), run.Spans...)
							bad.Spans[i].Bytes -= comm.PairBytes
							if bad.Reconcile() == nil {
								t.Fatalf("root %d: Reconcile accepts corrupted span %+v", run.Root, bad.Spans[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestTraceVisitedMatchesResult cross-checks trace content against the
// Result the caller received.
func TestTraceVisitedMatchesResult(t *testing.T) {
	g := kron(t, 9, 3)
	observer := obs.New()
	cfg := Config{
		Nodes: 4, SuperNodeSize: 2, Transport: TransportRelay, Engine: perf.EngineCPE,
		DirectionOptimized: true, Obs: observer,
	}
	runner, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	root := pickRoots(t, g, 1)[0]
	res, err := runner.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	runs := observer.Trace.Runs()
	if len(runs) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(runs))
	}
	tr := runs[0]
	if tr.Root != int64(root) || tr.Visited != res.Visited || tr.TraversedEdges != res.TraversedEdges {
		t.Fatalf("trace identity mismatch: trace {root %d, visited %d, edges %d}, result {root %d, visited %d, edges %d}",
			tr.Root, tr.Visited, tr.TraversedEdges, root, res.Visited, res.TraversedEdges)
	}
	if tr.TotalSeconds != res.Time || tr.GTEPS != res.GTEPS {
		t.Fatal("trace time/GTEPS diverge from result")
	}
	if tr.BottomUpLevels != res.BottomUpLevels || len(tr.Levels) != len(res.Levels) {
		t.Fatal("trace level structure diverges from result")
	}
	if err := tr.Reconcile(); err != nil {
		t.Fatal(err)
	}
}

// TestNilObserverIsFree ensures a nil Observer (the default) records and
// allocates nothing and runs fine.
func TestNilObserverIsFree(t *testing.T) {
	g := kron(t, 8, 1)
	runner, err := NewRunner(Config{Nodes: 4, SuperNodeSize: 2, Transport: TransportDirect, Engine: perf.EngineMPE}, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(pickRoots(t, g, 1)[0]); err != nil {
		t.Fatal(err)
	}
}
