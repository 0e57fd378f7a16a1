package obs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// Trace diffing: align two recorded benchmarks level by level and module
// by module and render what changed. Both sides are RunTrace dumps — the
// {"runs": [...]} document served at /traces and written by -trace-out —
// so a trace captured before a change can be compared against one captured
// after it.

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

// RunSummary is the digest of one recorded run that a trace diff compares.
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

// ReadRunSummaries parses a RunTrace dump into run digests, and rejects
// every other kind of document (see Sniff).
func ReadRunSummaries(rd io.Reader) ([]RunSummary, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	kind, err := Sniff(data)
	if err != nil {
		return nil, err
	}
	if kind != KindRunTrace {
		return nil, fmt.Errorf("obs: document is a %s, not a RunTrace dump (write one with -trace-out)", kind)
	}
	runs, err := ReadTraceJSON(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return summarizeRuns(runs), nil
}

// summarizeRuns digests recorded runs: their levels, and their module
// spans summed over nodes per (level, module).
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
		for _, sp := range rt.Spans {
			i := slices.IndexFunc(rs.Modules, func(m ModuleSummary) bool {
				return m.Level == sp.Level && m.Module == sp.Module
			})
			if i < 0 {
				i = len(rs.Modules)
				rs.Modules = append(rs.Modules, ModuleSummary{Module: sp.Module, Level: sp.Level})
			}
			m := &rs.Modules[i]
			m.WallSeconds += sp.Dur
			m.Bytes += sp.Bytes
			m.Nodes++
		}
		slices.SortFunc(rs.Modules, func(a, b ModuleSummary) int {
			return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Module, b.Module))
		})
		out = append(out, rs)
	}
	return out
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
