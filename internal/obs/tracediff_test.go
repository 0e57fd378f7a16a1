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
func diffFixtures() (a, b []RunTrace, as, bs []RunSpans) {
	a = []RunTrace{{
		Root: 7, Visited: 100, TraversedEdges: 500, TotalSeconds: 30e-6,
		TotalNetworkBytes: 3000,
		Levels: []LevelSpan{
			{Level: 0, Direction: "topdown", FrontierVertices: 1, EdgesRelaxed: 50,
				WallSeconds: 10e-6, Rounds: 1, NetworkBytes: 1000},
			{Level: 1, Direction: "topdown", FrontierVertices: 40, EdgesRelaxed: 450,
				WallSeconds: 20e-6, Rounds: 1, NetworkBytes: 2000},
		},
	}}
	as = []RunSpans{{
		Root: 7, Total: 30e-6,
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
	}}
	bs = []RunSpans{{
		Root: 7, Total: 27e-6,
		Spans: []ModuleSpan{
			{Node: 0, Module: ModuleForwardGenerator, Level: 0, Start: 0, Dur: 3e-6, Bytes: 500},
			{Node: 1, Module: ModuleForwardGenerator, Level: 0, Start: 0, Dur: 5e-6, Bytes: 500},
			{Node: 0, Module: ModuleForwardHandler, Level: 1, Start: 8e-6, Dur: 7e-6, Bytes: 850},
			{Node: 1, Module: ModuleBackwardHandler, Level: 2, Start: 23e-6, Dur: 2e-6, Bytes: 150},
		},
	}}
	return
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

// TestTraceDiffChromeGolden round-trips WriteChromeTrace output through the
// summarizer and golden-checks the rendered delta table — the cmd/inspect
// path for two -chrome-trace exports.
func TestTraceDiffChromeGolden(t *testing.T) {
	aT, bT, aS, bS := diffFixtures()

	var aBuf, bBuf bytes.Buffer
	if err := WriteChromeTrace(&aBuf, aT, aS); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&bBuf, bT, bS); err != nil {
		t.Fatal(err)
	}
	a, err := ReadRunSummaries(&aBuf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadRunSummaries(&bBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || len(a[0].Modules) != 2 {
		t.Fatalf("side A parsed wrong: %+v", a)
	}
	var out bytes.Buffer
	WriteTraceDiff(&out, a, b, "before.json", "after.json")
	checkGolden(t, "tracediff_chrome.golden", out.Bytes())
}

// TestTraceDiffRunsGolden does the same for two /traces-format dumps, which
// carry no module spans — the module section must be absent.
func TestTraceDiffRunsGolden(t *testing.T) {
	aT, bT, _, _ := diffFixtures()

	var aBuf, bBuf bytes.Buffer
	aRec, bRec := NewTraceRecorder(), NewTraceRecorder()
	for _, rt := range aT {
		aRec.Record(rt)
	}
	for _, rt := range bT {
		bRec.Record(rt)
	}
	if err := aRec.WriteJSON(&aBuf); err != nil {
		t.Fatal(err)
	}
	if err := bRec.WriteJSON(&bBuf); err != nil {
		t.Fatal(err)
	}
	a, err := ReadRunSummaries(&aBuf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadRunSummaries(&bBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(a[0].Modules) != 0 {
		t.Fatalf("runs dump should carry no module data, got %+v", a[0].Modules)
	}
	var out bytes.Buffer
	WriteTraceDiff(&out, a, b, "before.json", "after.json")
	checkGolden(t, "tracediff_runs.golden", out.Bytes())
}

// TestTraceDiffRootAlignment checks runs are paired by root vertex when the
// two sides recorded the same roots in a different order, and that
// single-sided roots surface as "only in" lines.
func TestTraceDiffRootAlignment(t *testing.T) {
	mk := func(root int64, wall float64) RunSummary {
		return RunSummary{Root: root, TotalSeconds: wall, Levels: []LevelSummary{
			{Level: 0, Direction: "topdown", WallSeconds: wall, Frontier: 1, Edges: 10, NetworkBytes: 100},
		}}
	}
	a := []RunSummary{mk(7, 10e-6), mk(9, 20e-6), mk(11, 5e-6)}
	b := []RunSummary{mk(9, 20e-6), mk(7, 10e-6), mk(13, 8e-6)}

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
	mk := func(root int64, wall float64) RunSummary {
		return RunSummary{Root: root, TotalSeconds: wall}
	}
	a := []RunSummary{mk(7, 10e-6), mk(7, 12e-6)}
	b := []RunSummary{mk(9, 20e-6), mk(7, 10e-6)}

	var out bytes.Buffer
	WriteTraceDiff(&out, a, b, "A", "B")
	if !bytes.Contains(out.Bytes(), []byte("run 0: root 7 vs root 9")) {
		t.Errorf("duplicate roots should fall back to positional pairing:\n%s", out.String())
	}
}

// TestTraceDiffCrossFormat checks a chrome export diffs cleanly against a
// runs dump of the same benchmark: level rows align, module rows appear
// one-sided.
func TestTraceDiffCrossFormat(t *testing.T) {
	aT, _, aS, _ := diffFixtures()
	var chromeBuf, runsBuf bytes.Buffer
	if err := WriteChromeTrace(&chromeBuf, aT, aS); err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder()
	for _, rt := range aT {
		rec.Record(rt)
	}
	if err := rec.WriteJSON(&runsBuf); err != nil {
		t.Fatal(err)
	}
	a, err := ReadRunSummaries(&chromeBuf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadRunSummaries(&runsBuf)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Root != b[0].Root {
		t.Fatalf("roots diverge: %d vs %d", a[0].Root, b[0].Root)
	}
	if len(a[0].Levels) != len(b[0].Levels) {
		t.Fatalf("level counts diverge: %d vs %d", len(a[0].Levels), len(b[0].Levels))
	}
	for i := range a[0].Levels {
		if a[0].Levels[i] != b[0].Levels[i] {
			t.Fatalf("level %d diverges across formats:\nchrome: %+v\nruns:   %+v",
				i, a[0].Levels[i], b[0].Levels[i])
		}
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
	traces, _, spans, _ := diffFixtures()
	var chrome, runs, dump bytes.Buffer
	if err := WriteChromeTrace(&chrome, traces, spans); err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder()
	for _, rt := range traces {
		rec.Record(rt)
	}
	if err := rec.WriteJSON(&runs); err != nil {
		t.Fatal(err)
	}
	if err := WriteFlightDump(&dump, seedFlight().Dump()); err != nil {
		t.Fatal(err)
	}
	checkpoint, err := os.ReadFile(filepath.Join("..", "ckpt", "testdata", "golden.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	return []formatDoc{
		{"chrome", KindChrome, chrome.Bytes()},
		{"runtrace", KindRunTrace, runs.Bytes()},
		{"flight", KindFlightDump, dump.Bytes()},
		{"checkpoint", KindCheckpoint, checkpoint},
		{"not-json", "", []byte("garbage\n")},
		{"array", "", []byte("[1, 2]")},
		{"unknown-object", "", []byte(`{"levels": []}`)},
	}
}

// TestReadRunSummariesFormats feeds the trace reader every kind of
// document: the two trace formats parse, and everything else — a flight
// dump, whose top-level "runs" key once passed for a RunTrace dump, a
// checkpoint and garbage — is an error, not an empty diff.
func TestReadRunSummariesFormats(t *testing.T) {
	for _, doc := range formatDocs(t) {
		t.Run(doc.name, func(t *testing.T) {
			runs, err := ReadRunSummaries(bytes.NewReader(doc.data))
			isTrace := doc.kind == KindChrome || doc.kind == KindRunTrace
			if isTrace && (err != nil || len(runs) == 0) {
				t.Fatalf("want run summaries, got %d runs, err %v", len(runs), err)
			}
			if !isTrace && err == nil {
				t.Fatalf("want an error, got %d run summaries", len(runs))
			}
		})
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
