package obs

import (
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

// WriteTraceDiff aligns two recorded benchmarks run by run and level by
// level (by level number) and renders a delta table, module spans summed
// over nodes per level and module. Runs are paired by
// their root vertex whenever both sides' root lists are duplicate-free, so
// traces whose -roots samples landed in a different order still line up;
// when either side reuses a root, pairing falls back to recording order.
// labelA/labelB name the two sides in the output header ("before"/"after",
// file names, ...).
func WriteTraceDiff(w io.Writer, a, b []RunTrace, labelA, labelB string) {
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
func rootIndex(a, b []RunTrace) (map[int64]int, bool) {
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

func diffRun(w io.Writer, idx int, a, b RunTrace) {
	fmt.Fprintf(w, "\nrun %d: root %d vs root %d, total %s -> %s (%s)\n",
		idx, a.Root, b.Root, fmtSeconds(a.TotalSeconds), fmtSeconds(b.TotalSeconds),
		fmtPct(a.TotalSeconds, b.TotalSeconds))
	fmt.Fprintln(w, "  lvl dir        wall_A      wall_B      dwall    frontier A->B        edges A->B           net_bytes A->B")

	type pair struct{ a, b *LevelSpan }
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
				fmtCounts(p.a.FrontierVertices, p.b.FrontierVertices),
				fmtCounts(p.a.EdgesRelaxed, p.b.EdgesRelaxed),
				fmtCounts(p.a.NetworkBytes, p.b.NetworkBytes))
		}
	}
	diffModules(w, sumModules(a.Spans), sumModules(b.Spans))
}

// moduleKey names one module of one level.
type moduleKey struct {
	level  int
	module string
}

// moduleSum is one module's spans of one level summed over the nodes.
type moduleSum struct {
	wall  float64
	bytes int64
}

// sumModules sums a run's module spans per level and module.
func sumModules(spans []ModuleSpan) map[moduleKey]*moduleSum {
	sums := map[moduleKey]*moduleSum{}
	for _, sp := range spans {
		k := moduleKey{sp.Level, sp.Module}
		if sums[k] == nil {
			sums[k] = &moduleSum{}
		}
		sums[k].wall += sp.Dur
		sums[k].bytes += sp.Bytes
	}
	return sums
}

func diffModules(w io.Writer, a, b map[moduleKey]*moduleSum) {
	if len(a) == 0 && len(b) == 0 {
		return
	}
	var order []moduleKey
	for k := range a {
		order = append(order, k)
	}
	for k := range b {
		if a[k] == nil {
			order = append(order, k)
		}
	}
	slices.SortFunc(order, func(x, y moduleKey) int {
		return cmp.Or(cmp.Compare(x.level, y.level), cmp.Compare(x.module, y.module))
	})
	fmt.Fprintln(w, "  module deltas:")
	fmt.Fprintln(w, "  lvl module              wall_A      wall_B      dwall    bytes A->B")
	for _, k := range order {
		pa, pb := a[k], b[k]
		switch {
		case pb == nil:
			fmt.Fprintf(w, "  %-3d %-19s %-11s %-11s %-8s only in A\n",
				k.level, k.module, fmtSeconds(pa.wall), "-", "-")
		case pa == nil:
			fmt.Fprintf(w, "  %-3d %-19s %-11s %-11s %-8s only in B\n",
				k.level, k.module, "-", fmtSeconds(pb.wall), "-")
		default:
			fmt.Fprintf(w, "  %-3d %-19s %-11s %-11s %-8s %s\n",
				k.level, k.module,
				fmtSeconds(pa.wall), fmtSeconds(pb.wall),
				fmtPct(pa.wall, pb.wall),
				fmtCounts(pa.bytes, pb.bytes))
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
