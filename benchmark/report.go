package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

func printHeader(out io.Writer, w workload, o options, e envInfo) {
	c := w.Config
	kind := "rooted BFS + ValidateParallel"
	if !w.BFS {
		kind = fmt.Sprintf("WCC to fixpoint + PageRank(%d, %.2f)", pagerankIterations, pagerankDamping)
	}
	fmt.Fprintf(out, "workload %s  seed %d  GOMAXPROCS %d (nproc %d)\n", w.Name, o.seed, e.GOMAXPROCS, e.NProc)
	fmt.Fprintf(out, "  Kronecker scale %d, %d nodes, super-node %d, %s, workers %d; %d ops per pass of %s; closed loop, 1 client\n",
		w.Scale, c.Nodes, c.SuperNodeSize, c.Name(), c.Workers, w.Ops, kind)
	fmt.Fprintf(out, "  why: %s\n", w.Why)
}

// printMetric prints one metric by name with its unit, clock and direction;
// note carries the bound and the sample count where there is one.
func printMetric(out io.Writer, d metricDef, x float64, note string) {
	fmt.Fprintf(out, "  %-34s %16.6g %-9s %-9s %-7s %s\n", d.Name, x, d.Unit, d.Clock, d.Better, note)
}

// boundLabel says how far an end-to-end metric may worsen: a share of the
// baseline for host metrics, not at all for modelled ones and failures.
func boundLabel(d metricDef) string {
	if d.Clock == clockHost {
		return fmt.Sprintf("bound %g%%", d.Bound*100)
	}
	return "exact on one seed"
}

// printEndToEnd lists every end-to-end metric by name with its unit.
func printEndToEnd(out io.Writer, v values, m measured) {
	fmt.Fprintf(out, "end-to-end, tracing off: %d ops timed in %d pass(es), %.2f s\n", len(m.samples), m.passes, m.wall.Seconds())
	for _, d := range endToEnd {
		x, ok := v[d.Name]
		note := boundLabel(d)
		switch {
		case d.Name == "op_ms_p90" && !ok:
			fmt.Fprintf(out, "  %-34s %16s %-9s (needs %d samples beyond it; this workload times %d)\n",
				d.Name, "-", d.Unit, tailSamples, len(m.samples))
			continue
		case d.Name == "op_ms_p50" || d.Name == "op_ms_p90" || d.Name == "validate_ms_p50":
			note += fmt.Sprintf(", %d samples", len(m.samples)-m.failed)
		case d.Name == "failed_ops":
			note += fmt.Sprintf(", of %d ops attempted", len(m.samples))
		case d.Name == "setup_s":
			note += fmt.Sprintf(", median of %d set-ups", setupRepeats)
		}
		printMetric(out, d, x, note)
	}
	for _, f := range m.failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}

// share is a part of a measured interval attributed to one span name.
type share struct {
	name string
	ns   int64
}

// sharesUnder splits the time of every span called `root` (and everything
// below it) by span name, using self times so nothing is counted twice.
func sharesUnder(spans []span, root string) (total int64, parts []share) {
	self := selfTimes(spans)
	inside := make([]bool, len(spans))
	byName := map[string]int64{}
	for i, s := range spans { // parents precede children in the span list
		inside[i] = s.Name == root || (s.Parent >= 0 && inside[s.Parent])
		if inside[i] {
			byName[s.Name] += self[i]
			total += self[i]
		}
	}
	for name, ns := range byName {
		parts = append(parts, share{name, ns})
	}
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].ns != parts[j].ns {
			return parts[i].ns > parts[j].ns
		}
		return parts[i].name < parts[j].name
	})
	return total, parts
}

func formatShares(total int64, parts []share) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s %.1f%%", p.name, ratio(float64(p.ns), float64(total))*100)
	}
	return b.String()
}

// printPerLayer lists every per-layer metric, then says where set-up and op
// time went according to the spans, and what tracing cost.
func printPerLayer(out io.Writer, tr *tracedResult) {
	fmt.Fprintf(out, "per-layer, traced pass: %d ops, each run plain and observed; then probes\n", tr.attempted/2)
	for _, d := range perLayer {
		printMetric(out, d, tr.layers[d.Name], "")
	}
	for _, f := range tr.failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	fmt.Fprintln(out, "where the time went (spans recorded from outside; self time = duration - child coverage)")
	if total, parts := sharesUnder(tr.spans, "setup"); total > 0 {
		fmt.Fprintf(out, "  setup %.3f s: %s\n", float64(total)/1e9, formatShares(total, parts))
	}
	if total, parts := sharesUnder(tr.spans, "op"); total > 0 {
		fmt.Fprintf(out, "  ops   %.3f s: %s\n", float64(total)/1e9, formatShares(total, parts))
	}
	fmt.Fprintf(out, "  comm (computed, not measured: from outside its time sits inside the level spans): %.1f%% of op_ms_p50\n",
		tr.layers["comm.est_share_pct"])
	fmt.Fprintf(out, "tracing overhead: op_ms_p50 %.3f ms plain, %.3f ms observed (%+.1f%%)\n",
		tr.baseP50, tr.tracedP50, tr.layers["obs.overhead_pct"])
}

// printSummary prints the merged document of an orchestrated run: median and
// quartiles of every end-to-end metric per workload.
func printSummary(out io.Writer, doc *document) {
	fmt.Fprintf(out, "\nsummary  seed %d  %s, %d cores, GOMAXPROCS %d, %s, commit %s\n",
		doc.Seed, doc.Env.CPU, doc.Env.NProc, doc.Env.GOMAXPROCS, doc.Env.Go, doc.Env.GitSHA)
	for _, w := range doc.Workloads {
		fmt.Fprintf(out, "%s: %d ops attempted, %d failed\n", w.Name, w.Attempted, w.Failed)
		for _, d := range endToEnd {
			s := w.EndToEnd[d.Name]
			if s == nil {
				continue
			}
			fmt.Fprintf(out, "  %-22s median %14.6g  [q1 %.6g, q3 %.6g] %-9s %d run(s), spread %.1f%%\n",
				d.Name, s.Median, s.Q1, s.Q3, s.Unit, len(s.Runs), relSpread(s.Runs)*100)
		}
	}
}
