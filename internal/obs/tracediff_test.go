package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// diffFixtures builds a matched before/after pair: "before" has two levels
// and per-node module spans; "after" grows a level, shifts the byte counts
// and runs faster.
func diffFixtures() (a, b []RunTrace) {
	a = []RunTrace{{
		Root: 7, Visited: 100, TraversedEdges: 500, TotalSeconds: 30e-6,
		TotalNetworkBytes: 3000,
		Levels: []LevelSpan{
			{Level: 0, Direction: "topdown", FrontierVertices: 1, EdgesRelaxed: 50,
				WallSeconds: 10e-6, Rounds: 1, NetworkBytes: 1000},
			{Level: 1, Direction: "topdown", FrontierVertices: 40, EdgesRelaxed: 450,
				WallSeconds: 20e-6, Rounds: 1, NetworkBytes: 2000},
		},
		Spans: []ModuleSpan{
			{Node: 0, Module: ModuleForwardGenerator, Level: 0, Start: 0, Dur: 4e-6, Bytes: 400},
			{Node: 1, Module: ModuleForwardGenerator, Level: 0, Start: 0, Dur: 6e-6, Bytes: 600},
			{Node: 0, Module: ModuleForwardHandler, Level: 1, Start: 10e-6, Dur: 8e-6, Bytes: 900},
		},
	}}
	b = []RunTrace{{
		Root: 7, Visited: 120, TraversedEdges: 520, TotalSeconds: 27e-6,
		TotalNetworkBytes: 3200,
		Levels: []LevelSpan{
			{Level: 0, Direction: "topdown", FrontierVertices: 1, EdgesRelaxed: 50,
				WallSeconds: 8e-6, Rounds: 1, NetworkBytes: 1000},
			{Level: 1, Direction: "topdown", FrontierVertices: 40, EdgesRelaxed: 460,
				WallSeconds: 15e-6, Rounds: 1, NetworkBytes: 1900},
			{Level: 2, Direction: "bottomup", FrontierVertices: 20, EdgesRelaxed: 10,
				WallSeconds: 4e-6, Rounds: 2, NetworkBytes: 300},
		},
		Spans: []ModuleSpan{
			{Node: 0, Module: ModuleForwardGenerator, Level: 0, Start: 0, Dur: 3e-6, Bytes: 500},
			{Node: 1, Module: ModuleForwardGenerator, Level: 0, Start: 0, Dur: 5e-6, Bytes: 500},
			{Node: 0, Module: ModuleForwardHandler, Level: 1, Start: 8e-6, Dur: 7e-6, Bytes: 850},
			{Node: 1, Module: ModuleBackwardHandler, Level: 2, Start: 23e-6, Dur: 2e-6, Bytes: 150},
		},
	}}
	return
}

// dump writes runs as the RunTrace dump -trace-out writes.
func dump(t *testing.T, runs []RunTrace) *bytes.Buffer {
	t.Helper()
	rec := NewTraceRecorder()
	for _, rt := range runs {
		rec.Record(rt)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// readBack writes both sides as dumps and reads them back.
func readBack(t *testing.T, aT, bT []RunTrace) (a, b []RunTrace) {
	t.Helper()
	a, err := ReadTraceJSON(dump(t, aT))
	if err != nil {
		t.Fatal(err)
	}
	if b, err = ReadTraceJSON(dump(t, bT)); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s missing (rerun with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s mismatch (rerun with -update after verifying):\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestTraceDiffModulesGolden diffs two RunTrace dumps that carry module
// spans and golden-checks the rendered level and module delta tables — the
// cmd/inspect path for two -trace-out files.
func TestTraceDiffModulesGolden(t *testing.T) {
	aT, bT := diffFixtures()
	a, b := readBack(t, aT, bT)
	if len(a) != 1 || len(sumModules(a[0].Spans)) != 2 {
		t.Fatalf("side A parsed wrong: %+v", a)
	}
	var out bytes.Buffer
	WriteTraceDiff(&out, a, b, "before.json", "after.json")
	checkGolden(t, "tracediff_modules.golden", out.Bytes())
}

// TestTraceDiffRunsGolden does the same for two dumps without module spans
// — the module section must be absent.
func TestTraceDiffRunsGolden(t *testing.T) {
	aT, bT := diffFixtures()
	aT[0].Spans, bT[0].Spans = nil, nil
	a, b := readBack(t, aT, bT)
	if len(a[0].Spans) != 0 {
		t.Fatalf("runs dump should carry no module data, got %+v", a[0].Spans)
	}
	var out bytes.Buffer
	WriteTraceDiff(&out, a, b, "before.json", "after.json")
	checkGolden(t, "tracediff_runs.golden", out.Bytes())
}

// TestTraceDiffRootAlignment checks runs are paired by root vertex when the
// two sides recorded the same roots in a different order, and that
// single-sided roots surface as "only in" lines.
func TestTraceDiffRootAlignment(t *testing.T) {
	mk := func(root int64, wall float64) RunTrace {
		return RunTrace{Root: root, TotalSeconds: wall, Levels: []LevelSpan{
			{Level: 0, Direction: "topdown", WallSeconds: wall, FrontierVertices: 1, EdgesRelaxed: 10, NetworkBytes: 100},
		}}
	}
	a := []RunTrace{mk(7, 10e-6), mk(9, 20e-6), mk(11, 5e-6)}
	b := []RunTrace{mk(9, 20e-6), mk(7, 10e-6), mk(13, 8e-6)}

	var out bytes.Buffer
	WriteTraceDiff(&out, a, b, "A", "B")
	text := out.String()
	for _, want := range []string{
		"run 0: root 7 vs root 7",
		"run 1: root 9 vs root 9",
		"run 2: only in A (root 11)",
		"run 2: only in B (root 13)",
	} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Errorf("aligned diff missing %q:\n%s", want, text)
		}
	}
	if bytes.Contains(out.Bytes(), []byte("root 7 vs root 9")) {
		t.Errorf("runs paired positionally despite distinct roots:\n%s", text)
	}
}

// TestTraceDiffDuplicateRootsFallback checks alignment degrades to
// recording order when a side samples the same root twice — "the run with
// root r" is ambiguous there.
func TestTraceDiffDuplicateRootsFallback(t *testing.T) {
	mk := func(root int64, wall float64) RunTrace {
		return RunTrace{Root: root, TotalSeconds: wall}
	}
	a := []RunTrace{mk(7, 10e-6), mk(7, 12e-6)}
	b := []RunTrace{mk(9, 20e-6), mk(7, 10e-6)}

	var out bytes.Buffer
	WriteTraceDiff(&out, a, b, "A", "B")
	if !bytes.Contains(out.Bytes(), []byte("run 0: root 7 vs root 9")) {
		t.Errorf("duplicate roots should fall back to positional pairing:\n%s", out.String())
	}
}

// formatDoc is a test document and the kind Sniff must name ("" =
// garbage).
type formatDoc struct {
	name, kind string
	data       []byte
}

// formatDocs is one document of every kind the CLIs write, plus garbage.
func formatDocs(t *testing.T) []formatDoc {
	t.Helper()
	traces, _ := diffFixtures()
	var chrome, flight bytes.Buffer
	if err := WriteChromeTrace(&chrome, traces); err != nil {
		t.Fatal(err)
	}
	if err := WriteFlightDump(&flight, seedFlight().Dump()); err != nil {
		t.Fatal(err)
	}
	checkpoint, err := os.ReadFile(filepath.Join("..", "ckpt", "testdata", "golden.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	return []formatDoc{
		{"chrome", KindChrome, chrome.Bytes()},
		{"runtrace", KindRunTrace, dump(t, traces).Bytes()},
		{"flight", KindFlightDump, flight.Bytes()},
		{"checkpoint", KindCheckpoint, checkpoint},
		{"not-json", "", []byte("garbage\n")},
		{"array", "", []byte("[1, 2]")},
		{"unknown-object", "", []byte(`{"levels": []}`)},
	}
}

// TestSniff names every kind from its top-level keys and rejects garbage.
func TestSniff(t *testing.T) {
	for _, doc := range formatDocs(t) {
		t.Run(doc.name, func(t *testing.T) {
			kind, err := Sniff(doc.data)
			if kind != doc.kind || (err == nil) != (doc.kind != "") {
				t.Fatalf("Sniff = %q, %v; want %q", kind, err, doc.kind)
			}
		})
	}
}
