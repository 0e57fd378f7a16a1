package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixtureTrace builds a deterministic two-level, two-node run: level 0
// top-down, level 1 bottom-up, with relay flows on both stages.
func fixtureTrace() []RunTrace {
	return []RunTrace{{
		Root: 3, Visited: 10, TraversedEdges: 20, BottomUpLevels: 1,
		Levels: []LevelSpan{
			{Level: 0, Direction: "topdown", FrontierVertices: 1, EdgesRelaxed: 4,
				WallSeconds: 0.001, Rounds: 2, NetworkBytes: 256},
			{Level: 1, Direction: "bottomup", FrontierVertices: 9, EdgesRelaxed: 16,
				WallSeconds: 0.002, Rounds: 4, NetworkBytes: 512},
		},
		TotalSeconds: 0.003, GTEPS: 0.02,
		TotalNetworkBytes: 768,
		Spans: []ModuleSpan{
			{Node: 0, Module: ModuleForwardGenerator, Level: 0, Start: 0, Dur: 0.0002, Bytes: 128},
			{Node: 0, Module: ModuleRelay, Level: 0, Start: 0, Dur: 0.0001, Bytes: 64},
			{Node: 1, Module: ModuleRelay, Level: 0, Start: 0, Dur: 0.0002, Bytes: 128},
			{Node: 1, Module: ModuleForwardHandler, Level: 0, Start: 0, Dur: 0.0003, Bytes: 128},
			{Node: 0, Module: ModuleBackwardGenerator, Level: 1, Start: 0.001, Dur: 0.0004, Bytes: 256},
			{Node: 0, Module: ModuleBackwardHandler, Level: 1, Start: 0.001, Dur: 0.0002, Bytes: 96},
			{Node: 1, Module: ModuleRelay, Level: 1, Start: 0.001, Dur: 0.0003, Bytes: 256},
		},
		Flows: []FlowLink{
			{Level: 0, Channel: "forward", Stage: FlowStageOne, From: 0, To: 1, Bytes: 128},
			{Level: 0, Channel: "forward", Stage: FlowStageTwo, From: 1, To: 1, Bytes: 128},
			{Level: 1, Channel: "backward", Stage: FlowStageOne, From: 0, To: 1, Bytes: 256},
			{Level: 1, Channel: "backward", Stage: FlowStageTwo, From: 1, To: 0, Bytes: 96},
			// Dangling link: node 5 never produced a span, must be skipped.
			{Level: 0, Channel: "forward", Stage: FlowStageOne, From: 5, To: 1, Bytes: 1},
		},
	}}
}

// TestWriteChromeTraceGolden compares the export byte-for-byte against the
// checked-in golden file (regenerate with `go test ./internal/obs -run
// Chrome -update`). The export has no wall-clock inputs, so it must be
// fully deterministic.
func TestWriteChromeTraceGolden(t *testing.T) {
	traces := fixtureTrace()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traces); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	golden := filepath.Join("testdata", "chrometrace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace differs from %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}

	// Determinism: a second export must be byte-identical.
	var again bytes.Buffer
	if err := WriteChromeTrace(&again, traces); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two exports of the same input differ")
	}
}

// TestWriteChromeTraceStructure validates the trace-event invariants the
// golden file cannot express by itself: JSON shape, track layout, matched
// flow pairs, and spans contained in their level windows.
func TestWriteChromeTraceStructure(t *testing.T) {
	traces := fixtureTrace()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			ID   int            `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	var moduleSlices, flowStarts, flowEnds, runSlices, levelSlices int
	flowIDs := map[int]int{}
	for _, ev := range file.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Cat == "module":
			moduleSlices++
			if ev.Pid < 1 {
				t.Errorf("module slice %q on machine pid %d", ev.Name, ev.Pid)
			}
			if ev.Tid < 0 || ev.Tid > 3 {
				t.Errorf("module slice %q on unknown track %d", ev.Name, ev.Tid)
			}
			// Modelled spans must stay inside the run's window.
			if ev.Ts < 0 || ev.Ts+ev.Dur > 0.003*1e6+1e-9 {
				t.Errorf("module slice %q [%f, %f] outside run window", ev.Name, ev.Ts, ev.Ts+ev.Dur)
			}
		case ev.Ph == "X" && ev.Cat == "run":
			runSlices++
			if ev.Pid != 0 {
				t.Errorf("run slice on pid %d, want machine pid 0", ev.Pid)
			}
		case ev.Ph == "X" && ev.Cat == "level":
			levelSlices++
		case ev.Ph == "s":
			flowStarts++
			flowIDs[ev.ID]++
		case ev.Ph == "f":
			flowEnds++
			flowIDs[ev.ID]++
		}
	}
	if moduleSlices != len(traces[0].Spans) {
		t.Errorf("module slices = %d, want %d", moduleSlices, len(traces[0].Spans))
	}
	if runSlices != 1 || levelSlices != 2 {
		t.Errorf("run/level slices = %d/%d, want 1/2", runSlices, levelSlices)
	}
	// 5 links, 1 dangling: 4 rendered pairs.
	if flowStarts != 4 || flowEnds != 4 {
		t.Errorf("flow starts/ends = %d/%d, want 4/4 (dangling link must be dropped)", flowStarts, flowEnds)
	}
	for id, n := range flowIDs {
		if n != 2 {
			t.Errorf("flow id %d has %d events, want matched s+f pair", id, n)
		}
	}
}
