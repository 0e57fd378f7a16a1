package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swbfs/internal/algos"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

// fixtures writes one file of every kind inspect reads, plus garbage, and
// returns their paths by name.
func fixtures(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dump := func(pairs int) *obs.FlightDump {
		fr := obs.NewFlightRecorder(0)
		fr.SetStreamNames([]string{"data"}, []string{"forward"})
		fr.BeginRun(3, "bfs", 2, "direct")
		fr.Send(0, 1, 0, pairs, 0, 0, 0, obs.NoEnd, "")
		fr.Recv(1, 0, 0, pairs, 0, 0, obs.NoEnd)
		return fr.Dump()
	}
	var a, b, runs bytes.Buffer
	if err := obs.WriteFlightDump(&a, dump(3)); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteFlightDump(&b, dump(4)); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewTraceRecorder()
	rec.Record(obs.RunTrace{Root: 3, Levels: []obs.LevelSpan{{Level: 0, Direction: "topdown", WallSeconds: 1e-6}}})
	if err := rec.WriteJSON(&runs); err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"flight":     write("a.flight.json", a.Bytes()),
		"flight2":    write("b.flight.json", b.Bytes()),
		"runtrace":   write("t.json", runs.Bytes()),
		"chrome":     filepath.Join("..", "..", "internal", "obs", "testdata", "chrometrace_golden.json"),
		"checkpoint": filepath.Join("..", "..", "internal", "ckpt", "testdata", "golden.ckpt.json"),
		"garbage":    write("garbage.json", []byte("not json\n")),
	}
}

// TestLoadSniffsEveryKind checks the loader names each file kind, and
// refuses garbage.
func TestLoadSniffsEveryKind(t *testing.T) {
	f := fixtures(t)
	for name, want := range map[string]string{
		"flight":     obs.KindFlightDump,
		"runtrace":   obs.KindRunTrace,
		"chrome":     obs.KindChrome,
		"checkpoint": obs.KindCheckpoint,
		"garbage":    "",
	} {
		d, err := load(f[name])
		if d.kind != want || (err == nil) != (want != "") {
			t.Errorf("%s: load = %q, %v; want %q", name, d.kind, err, want)
		}
	}
}

// TestTraceSideFormats feeds a trace diff's reader every kind of
// document: a RunTrace dump parses, and everything else — a Chrome export,
// a flight dump, whose top-level "runs" key once passed for a RunTrace
// dump, a checkpoint and garbage — is an error, not an empty diff.
func TestTraceSideFormats(t *testing.T) {
	f := fixtures(t)
	dir := t.TempDir()
	other := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for name, path := range map[string]string{
		"chrome":         f["chrome"],
		"runtrace":       f["runtrace"],
		"flight":         f["flight"],
		"checkpoint":     f["checkpoint"],
		"not-json":       f["garbage"],
		"array":          other("array.json", "[1, 2]"),
		"unknown-object": other("levels.json", `{"levels": []}`),
	} {
		t.Run(name, func(t *testing.T) {
			d, err := load(path)
			var runs []obs.RunTrace
			if err == nil {
				runs, err = d.runs()
			}
			isTrace := name == "runtrace"
			if isTrace && (err != nil || len(runs) == 0) {
				t.Fatalf("want runs, got %d runs, err %v", len(runs), err)
			}
			if !isTrace && err == nil {
				t.Fatalf("want an error, got %d runs", len(runs))
			}
		})
	}
}

// TestTraceDiffCrossFormat checks a Chrome export is refused as either
// side of a trace diff, with an error that names its kind and points at
// -trace-out: only RunTrace dumps are read back.
func TestTraceDiffCrossFormat(t *testing.T) {
	f := fixtures(t)
	var chrome bytes.Buffer
	runs := []obs.RunTrace{{Root: 3, Levels: []obs.LevelSpan{{Level: 0, Direction: "topdown", WallSeconds: 1e-6}}}}
	if err := obs.WriteChromeTrace(&chrome, runs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chrome.json")
	if err := os.WriteFile(path, chrome.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sides := range [][2]string{{path, f["runtrace"]}, {f["runtrace"], path}} {
		var out bytes.Buffer
		_, err := diff(&out, sides[0], sides[1])
		if err == nil || !strings.Contains(err.Error(), obs.KindChrome) || !strings.Contains(err.Error(), "-trace-out") {
			t.Fatalf("diff %s %s: err %v, want one naming %q and -trace-out", sides[0], sides[1], err, obs.KindChrome)
		}
	}
}

// TestRunModes drives the command through each mode and checks its exit
// status and a line of its output.
func TestRunModes(t *testing.T) {
	f := fixtures(t)
	for _, tc := range []struct {
		name string
		args []string
		code int
		out  string // expected substring of stdout, or of stderr on failure
	}{
		{"render flight dump", []string{f["flight"]}, 0, "root=3"},
		{"render checkpoint", []string{f["checkpoint"]}, 0, "checkpoint schema"},
		{"identical dumps", []string{f["flight"], f["flight"]}, 0, ""},
		{"divergent dumps", []string{f["flight"], f["flight2"]}, 1, ""},
		{"two traces", []string{f["runtrace"], f["runtrace"]}, 0, "root 3 vs root 3"},
		{"mixed trace formats", []string{f["chrome"], f["runtrace"]}, 1, "Chrome trace, not a RunTrace dump (write one with -trace-out)"},
		{"flight dump against a trace", []string{f["flight"], f["runtrace"]}, 1, "cannot diff a flight dump"},
		{"one trace", []string{f["runtrace"]}, 0, `"traceEvents"`},
		{"one Chrome trace", []string{f["chrome"]}, 1, "give a -trace-out dump"},
		{"garbage", []string{f["garbage"]}, 1, "not a JSON object"},
		{"no arguments", nil, 2, "usage"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String()+stderr.String(), tc.out) {
				t.Fatalf("output lacks %q\nstdout:\n%s\nstderr:\n%s", tc.out, &stdout, &stderr)
			}
		})
	}
}

// TestTraceRendersAsChromeTrace: inspect of a -trace-out dump writes, byte
// for byte, what obs.WriteChromeTrace writes over the recorded runs
// themselves — a BFS and a WCC run on the relay transport, so module
// spans and relay flows both cross the dump.
func TestTraceRendersAsChromeTrace(t *testing.T) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(8)
	cfg.SuperNodeSize, cfg.Transport, cfg.Obs = 4, core.TransportRelay, obs.New()
	r, err := core.NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(testutil.FirstConnected(t, g)); err != nil {
		t.Fatal(err)
	}
	if _, err := algos.WCC(cfg, g); err != nil {
		t.Fatal(err)
	}
	var dump, want, stdout, stderr bytes.Buffer
	if err := cfg.Obs.Trace.WriteJSON(&dump); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&want, cfg.Obs.Trace.Runs()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatalf("inspect wrote %d bytes, WriteChromeTrace over the recorded runs %d", stdout.Len(), want.Len())
	}
}
