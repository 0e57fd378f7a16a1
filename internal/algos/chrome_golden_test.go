package algos

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

const chromeGolden = "testdata/chrometrace_runs.golden"

// TestChromeTraceMatchesGolden pins the Chrome export of whole runs byte for
// byte: BFS on the relay transport at two worker widths (the second run
// twice, from two roots, so run offsets accumulate), direct top-down BFS, and
// WCC on the relay transport. Each case is written after a "== <name>" line.
func TestChromeTraceMatchesGolden(t *testing.T) {
	bfsConfig := func(transport core.Transport, workers int) core.Config {
		return core.Config{
			Nodes: 4, SuperNodeSize: 2, Transport: transport, Engine: perf.EngineMPE,
			DirectionOptimized: true, HubPrefetch: true, SmallMessageMPE: true,
			Workers: workers,
		}
	}
	direct := bfsConfig(core.TransportDirect, 1)
	direct.DirectionOptimized = false
	bfs := kron(t, 9, 42)
	cases := []struct {
		name  string
		cfg   core.Config
		roots []graph.Vertex
	}{
		{"relay/hybrid/workers=1", bfsConfig(core.TransportRelay, 1), []graph.Vertex{5}},
		{"relay/hybrid/workers=2", bfsConfig(core.TransportRelay, 2), []graph.Vertex{5, 17}},
		{"direct/topdown", direct, []graph.Vertex{5}},
		{"wcc/relay", core.Config{}, nil},
	}
	var out bytes.Buffer
	for _, tc := range cases {
		o := obs.New()
		if tc.roots == nil {
			cfg := machine(4, core.TransportRelay)
			cfg.SuperNodeSize = 2
			cfg.Obs = o
			if _, err := WCC(cfg, kron(t, 9, 23)); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		} else {
			tc.cfg.Obs = o
			r, err := core.NewRunner(tc.cfg, bfs)
			if err != nil {
				t.Fatal(err)
			}
			for _, root := range tc.roots {
				if _, err := r.Run(root); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
		}
		fmt.Fprintf(&out, "== %s\n", tc.name)
		if err := obs.WriteChromeTrace(&out, o.Trace.Runs()); err != nil {
			t.Fatal(err)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(chromeGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(chromeGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("Chrome export moved from %s", chromeGolden)
	}
}
