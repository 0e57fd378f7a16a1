package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Trace diffing: align two recorded benchmarks level by level and render
// what changed. Both export formats are accepted — the Chrome trace-event
// JSON written by -chrome-trace / WriteChromeTrace and the {"runs": [...]}
// dump served at /traces and written by -trace-out — so a trace captured
// before a change can be compared against one captured after it without
// caring which exporter produced either side.

// LevelSummary is one level (or algorithm round) of a summarized run.
type LevelSummary struct {
	Level        int
	Direction    string
	WallSeconds  float64
	Frontier     int64
	Edges        int64
	NetworkBytes int64
	Rounds       int64
}

// ModuleSummary aggregates one module's work across all nodes of one level.
type ModuleSummary struct {
	Module      string
	Level       int
	WallSeconds float64 // summed span durations across nodes
	Bytes       int64
	Nodes       int
}

// RunSummary is the format-neutral digest of one recorded run.
type RunSummary struct {
	Root         int64
	TotalSeconds float64
	Levels       []LevelSummary
	Modules      []ModuleSummary
}

// Document kinds Sniff tells apart.
const (
	KindChrome     = "Chrome trace"
	KindFlightDump = "flight dump"
	KindCheckpoint = "checkpoint"
	KindRunTrace   = "RunTrace dump"
)

// Sniff names the kind of a JSON document this repository writes from its
// top-level keys: "traceEvents" marks a Chrome trace, "events" a flight
// dump, "fingerprint" a checkpoint, and "runs" without "events" a RunTrace
// dump (a flight dump has a "runs" key too).
func Sniff(data []byte) (string, error) {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return "", fmt.Errorf("obs: not a JSON object: %w", err)
	}
	for _, k := range []struct{ key, kind string }{
		{"traceEvents", KindChrome},
		{"events", KindFlightDump},
		{"fingerprint", KindCheckpoint},
		{"runs", KindRunTrace},
	} {
		if _, ok := keys[k.key]; ok {
			return k.kind, nil
		}
	}
	return "", fmt.Errorf("obs: document is none of a %s, %s, %s or %s",
		KindChrome, KindFlightDump, KindCheckpoint, KindRunTrace)
}

// ReadRunSummaries parses either trace export format into run digests,
// and rejects every other kind of document (see Sniff).
func ReadRunSummaries(rd io.Reader) ([]RunSummary, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	kind, err := Sniff(data)
	if err != nil {
		return nil, err
	}
	if kind != KindChrome && kind != KindRunTrace {
		return nil, fmt.Errorf("obs: document is a %s, not a trace", kind)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Runs        []RunTrace    `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("obs: decoding trace: %w", err)
	}
	if kind == KindChrome {
		return summarizeChrome(doc.TraceEvents)
	}
	return summarizeRuns(doc.Runs), nil
}

// summarizeRuns digests a TraceRecorder dump. Module data is not part of
// that format, so Modules stays empty.
func summarizeRuns(runs []RunTrace) []RunSummary {
	out := make([]RunSummary, 0, len(runs))
	for _, rt := range runs {
		rs := RunSummary{Root: rt.Root, TotalSeconds: rt.TotalSeconds}
		for _, s := range rt.Levels {
			rs.Levels = append(rs.Levels, LevelSummary{
				Level:        s.Level,
				Direction:    s.Direction,
				WallSeconds:  s.WallSeconds,
				Frontier:     s.FrontierVertices,
				Edges:        s.EdgesRelaxed,
				NetworkBytes: s.NetworkBytes,
				Rounds:       int64(s.Rounds),
			})
		}
		out = append(out, rs)
	}
	return out
}

// summarizeChrome rebuilds run digests from a Chrome export. Run slices
// (cat "run", pid 0) define the timeline windows; level and module slices
// are assigned to the run window containing their start timestamp.
func summarizeChrome(events []chromeEvent) ([]RunSummary, error) {
	type window struct {
		lo, hi float64
		run    *RunSummary
	}
	var windows []window
	for _, ev := range events {
		if ev.Cat != "run" || ev.Ph != "X" {
			continue
		}
		var root int64
		if _, err := fmt.Sscanf(ev.Name, "root %d", &root); err != nil {
			return nil, fmt.Errorf("obs: unparseable run slice name %q", ev.Name)
		}
		windows = append(windows, window{
			lo:  ev.Ts,
			hi:  ev.Ts + ev.Dur,
			run: &RunSummary{Root: root, TotalSeconds: ev.Dur / 1e6},
		})
	}
	if len(windows) == 0 {
		return nil, fmt.Errorf("obs: chrome trace has no run slices")
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].lo < windows[j].lo })
	runOf := func(ts float64) *RunSummary {
		for _, w := range windows {
			// Half-open on the right except for the final window, so a
			// slice starting exactly at a run boundary lands in the later
			// run while end-of-timeline slices still resolve.
			if ts >= w.lo && (ts < w.hi || w.hi == windows[len(windows)-1].hi) {
				return w.run
			}
		}
		return nil
	}

	type modKey struct {
		module string
		level  int
	}
	modules := make(map[*RunSummary]map[modKey]*ModuleSummary)
	argInt := func(args map[string]any, key string) int64 {
		if v, ok := args[key].(float64); ok {
			return int64(v)
		}
		return 0
	}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case "level":
			run := runOf(ev.Ts)
			if run == nil {
				continue
			}
			var level int
			var dir string
			if _, err := fmt.Sscanf(ev.Name, "L%d %s", &level, &dir); err != nil {
				return nil, fmt.Errorf("obs: unparseable level slice name %q", ev.Name)
			}
			run.Levels = append(run.Levels, LevelSummary{
				Level:        level,
				Direction:    dir,
				WallSeconds:  ev.Dur / 1e6,
				Frontier:     argInt(ev.Args, "frontier_vertices"),
				Edges:        argInt(ev.Args, "edges_relaxed"),
				NetworkBytes: argInt(ev.Args, "network_bytes"),
				Rounds:       argInt(ev.Args, "rounds"),
			})
		case "module":
			run := runOf(ev.Ts)
			if run == nil {
				continue
			}
			// Module slice names are "<module> L<level>"; the module name
			// itself contains spaces, so split at the final " L".
			cut := strings.LastIndex(ev.Name, " L")
			if cut < 0 {
				return nil, fmt.Errorf("obs: unparseable module slice name %q", ev.Name)
			}
			var level int
			if _, err := fmt.Sscanf(ev.Name[cut+2:], "%d", &level); err != nil {
				return nil, fmt.Errorf("obs: unparseable module slice name %q", ev.Name)
			}
			key := modKey{module: ev.Name[:cut], level: level}
			if modules[run] == nil {
				modules[run] = make(map[modKey]*ModuleSummary)
			}
			m := modules[run][key]
			if m == nil {
				m = &ModuleSummary{Module: key.module, Level: key.level}
				modules[run][key] = m
			}
			m.WallSeconds += ev.Dur / 1e6
			m.Bytes += argInt(ev.Args, "bytes")
			m.Nodes++
		}
	}

	out := make([]RunSummary, 0, len(windows))
	for _, w := range windows {
		sort.Slice(w.run.Levels, func(i, j int) bool {
			return w.run.Levels[i].Level < w.run.Levels[j].Level
		})
		for _, m := range modules[w.run] {
			w.run.Modules = append(w.run.Modules, *m)
		}
		sort.Slice(w.run.Modules, func(i, j int) bool {
			a, b := w.run.Modules[i], w.run.Modules[j]
			if a.Level != b.Level {
				return a.Level < b.Level
			}
			return a.Module < b.Module
		})
		out = append(out, *w.run)
	}
	return out, nil
}

// WriteTraceDiff aligns two summarized benchmarks run by run and level by
// level (by level number) and renders a delta table. Runs are paired by
// their root vertex whenever both sides' root lists are duplicate-free, so
// traces whose -roots samples landed in a different order still line up;
// when either side reuses a root, pairing falls back to recording order.
// labelA/labelB name the two sides in the output header ("before"/"after",
// file names, ...).
func WriteTraceDiff(w io.Writer, a, b []RunSummary, labelA, labelB string) {
	fmt.Fprintf(w, "trace diff: A=%s (%d runs)  B=%s (%d runs)\n", labelA, len(a), labelB, len(b))
	if bIdx, ok := rootIndex(a, b); ok {
		matchedB := make([]bool, len(b))
		for i := range a {
			j, ok := bIdx[a[i].Root]
			if !ok {
				fmt.Fprintf(w, "\nrun %d: only in A (root %d)\n", i, a[i].Root)
				continue
			}
			matchedB[j] = true
			diffRun(w, i, a[i], b[j])
		}
		for j := range b {
			if !matchedB[j] {
				fmt.Fprintf(w, "\nrun %d: only in B (root %d)\n", j, b[j].Root)
			}
		}
		return
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if i >= len(a) {
			fmt.Fprintf(w, "\nrun %d: only in B (root %d)\n", i, b[i].Root)
			continue
		}
		if i >= len(b) {
			fmt.Fprintf(w, "\nrun %d: only in A (root %d)\n", i, a[i].Root)
			continue
		}
		diffRun(w, i, a[i], b[i])
	}
}

// rootIndex maps B's roots to their run indices when root-based alignment
// is well-defined — i.e. neither side ran the same root twice. A duplicate
// on either side makes "the run with root r" ambiguous, so alignment
// degrades to positional pairing.
func rootIndex(a, b []RunSummary) (map[int64]int, bool) {
	seenA := make(map[int64]bool, len(a))
	for i := range a {
		if seenA[a[i].Root] {
			return nil, false
		}
		seenA[a[i].Root] = true
	}
	idx := make(map[int64]int, len(b))
	for j := range b {
		if _, dup := idx[b[j].Root]; dup {
			return nil, false
		}
		idx[b[j].Root] = j
	}
	return idx, true
}

func diffRun(w io.Writer, idx int, a, b RunSummary) {
	fmt.Fprintf(w, "\nrun %d: root %d vs root %d, total %s -> %s (%s)\n",
		idx, a.Root, b.Root, fmtSeconds(a.TotalSeconds), fmtSeconds(b.TotalSeconds),
		fmtPct(a.TotalSeconds, b.TotalSeconds))
	fmt.Fprintln(w, "  lvl dir        wall_A      wall_B      dwall    frontier A->B        edges A->B           net_bytes A->B")

	type pair struct{ a, b *LevelSummary }
	levels := map[int]*pair{}
	var order []int
	get := func(l int) *pair {
		if p, ok := levels[l]; ok {
			return p
		}
		p := &pair{}
		levels[l] = p
		order = append(order, l)
		return p
	}
	for i := range a.Levels {
		get(a.Levels[i].Level).a = &a.Levels[i]
	}
	for i := range b.Levels {
		get(b.Levels[i].Level).b = &b.Levels[i]
	}
	sort.Ints(order)
	for _, l := range order {
		p := levels[l]
		switch {
		case p.b == nil:
			fmt.Fprintf(w, "  %-3d %-9s %-11s %-11s %-8s only in A\n",
				l, p.a.Direction, fmtSeconds(p.a.WallSeconds), "-", "-")
		case p.a == nil:
			fmt.Fprintf(w, "  %-3d %-9s %-11s %-11s %-8s only in B\n",
				l, p.b.Direction, "-", fmtSeconds(p.b.WallSeconds), "-")
		default:
			fmt.Fprintf(w, "  %-3d %-9s %-11s %-11s %-8s %-20s %-20s %s\n",
				l, p.a.Direction,
				fmtSeconds(p.a.WallSeconds), fmtSeconds(p.b.WallSeconds),
				fmtPct(p.a.WallSeconds, p.b.WallSeconds),
				fmtCounts(p.a.Frontier, p.b.Frontier),
				fmtCounts(p.a.Edges, p.b.Edges),
				fmtCounts(p.a.NetworkBytes, p.b.NetworkBytes))
		}
	}
	diffModules(w, a.Modules, b.Modules)
}

func diffModules(w io.Writer, a, b []ModuleSummary) {
	if len(a) == 0 && len(b) == 0 {
		return
	}
	type key struct {
		level  int
		module string
	}
	type pair struct{ a, b *ModuleSummary }
	mods := map[key]*pair{}
	var order []key
	get := func(k key) *pair {
		if p, ok := mods[k]; ok {
			return p
		}
		p := &pair{}
		mods[k] = p
		order = append(order, k)
		return p
	}
	for i := range a {
		get(key{a[i].Level, a[i].Module}).a = &a[i]
	}
	for i := range b {
		get(key{b[i].Level, b[i].Module}).b = &b[i]
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].level != order[j].level {
			return order[i].level < order[j].level
		}
		return order[i].module < order[j].module
	})
	fmt.Fprintln(w, "  module deltas:")
	fmt.Fprintln(w, "  lvl module              wall_A      wall_B      dwall    bytes A->B")
	for _, k := range order {
		p := mods[k]
		switch {
		case p.b == nil:
			fmt.Fprintf(w, "  %-3d %-19s %-11s %-11s %-8s only in A\n",
				k.level, k.module, fmtSeconds(p.a.WallSeconds), "-", "-")
		case p.a == nil:
			fmt.Fprintf(w, "  %-3d %-19s %-11s %-11s %-8s only in B\n",
				k.level, k.module, "-", fmtSeconds(p.b.WallSeconds), "-")
		default:
			fmt.Fprintf(w, "  %-3d %-19s %-11s %-11s %-8s %s\n",
				k.level, k.module,
				fmtSeconds(p.a.WallSeconds), fmtSeconds(p.b.WallSeconds),
				fmtPct(p.a.WallSeconds, p.b.WallSeconds),
				fmtCounts(p.a.Bytes, p.b.Bytes))
		}
	}
}

// fmtSeconds renders a modelled duration in microseconds — the natural
// granularity of the timing model's level spans.
func fmtSeconds(s float64) string {
	return fmt.Sprintf("%.1fus", s*1e6)
}

// fmtPct renders the relative change from a to b.
func fmtPct(a, b float64) string {
	if a == 0 {
		if b == 0 {
			return "0.0%"
		}
		return "+inf%"
	}
	pct := (b - a) / math.Abs(a) * 100
	return fmt.Sprintf("%+.1f%%", pct)
}

// fmtCounts renders an integer transition, collapsing unchanged values.
func fmtCounts(a, b int64) string {
	if a == b {
		return fmt.Sprintf("%d", a)
	}
	return fmt.Sprintf("%d->%d", a, b)
}
