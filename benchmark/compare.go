package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// interleave reports whether the two sets of runs overlap: false only when
// every run of one side reads below every run of the other.
func interleave(a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	return !(sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0])
}

// judge compares the runs of one metric on the base (a) and the change (b).
// Modelled metrics and failed_ops are exact: any difference counts. A host
// metric is worse or better only when the medians differ by more than its
// bound, and unresolved when the run-to-run spread is wider than the bound
// and the two sets of runs interleave.
func judge(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	diff := mb - ma // positive = worse
	if d.Better == higher {
		diff = -diff
	}
	var allowed float64 // how much worse (or better) still reads as unchanged
	if d.Clock == clockHost {
		if max(relSpread(a), relSpread(b)) > d.Bound && interleave(a, b) {
			return verdictUnresolved
		}
		allowed = d.Bound * math.Abs(ma)
	}
	switch {
	case diff > allowed:
		return verdictWorse
	case diff < -allowed:
		return verdictBetter
	}
	return verdictUnchanged
}

// compareFiles prints one row per workload and end-to-end metric and returns
// an error (so the process exits non-zero) on any worse verdict or any rise
// in failed ops.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Quick != b.Quick || a.Seconds != b.Seconds {
		return fmt.Errorf("not comparable: seed/quick/seconds are %d/%v/%g and %d/%v/%g; modelled metrics are exact only on one seed",
			a.Seed, a.Quick, a.Seconds, b.Seed, b.Quick, b.Seconds)
	}
	worse := compareDocuments(out, a, b)
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse", worse)
	}
	return nil
}

func compareDocuments(out io.Writer, a, b *document) (worse int) {
	fmt.Fprintf(out, "base   %s (%d cores, %s)\nchange %s (%d cores, %s)\n",
		a.Env.GitSHA, a.Env.NProc, a.Env.CPU, b.Env.GitSHA, b.Env.NProc, b.Env.CPU)
	fmt.Fprintf(out, "%-24s %-19s %13s %25s %13s %25s %9s %7s  %s\n",
		"workload", "metric", "base median", "[q1, q3]", "change median", "[q1, q3]", "delta", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(out, "%-24s missing from the change\n", wa.Name)
			worse++
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa == nil || sb == nil {
				continue
			}
			verdict := judge(d, sa.Runs, sb.Runs)
			if verdict == verdictWorse {
				worse++
			}
			bound := "exact"
			if d.Clock == clockHost {
				bound = fmt.Sprintf("%g%%", d.Bound*100)
			}
			// The delta is the change's median against the base's, signed as
			// measured (not by direction); its base is the base median.
			fmt.Fprintf(out, "%-24s %-19s %13.6g %25s %13.6g %25s %+8.2f%% %7s  %s\n",
				wa.Name, d.Name, sa.Median, fmt.Sprintf("[%.6g, %.6g]", sa.Q1, sa.Q3),
				sb.Median, fmt.Sprintf("[%.6g, %.6g]", sb.Q1, sb.Q3),
				ratio(sb.Median-sa.Median, math.Abs(sa.Median))*100, bound, verdict)
		}
	}
	return worse
}
