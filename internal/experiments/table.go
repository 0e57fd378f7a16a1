// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated machine: the architecture micro-benchmarks
// (Figures 3 and 5, the register-shuffle and relay-bandwidth measurements,
// the MPI memory arithmetic), the technique comparison (Figure 11), the
// weak-scaling and strong-scaling studies (Figure 12), the cross-system
// comparison (Table 2) and its full-machine headline, and the ablation
// and direction-policy studies.
//
// All lists each artifact with its quick, default and full shape; Build
// returns its Table under one Options (seed, roots, Size, host knobs).
// Every functional BFS is a graph500.Run with validation on; a sweep that
// measures several configurations on one graph generates its edge list
// once. cmd/swbfs-bench prints the tables, and testdata/quick.golden pins
// every quick-size one.
package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output: rows of pre-formatted cells plus notes
// that record scale-down substitutions.
type Table struct {
	ID     string // e.g. "fig11"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells (stringified).
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV emits the table as CSV (header row first; notes as trailing
// comment lines).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the table as a JSON object.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// WriteMarkdown emits the table the way EXPERIMENTS.md lays tables out: the
// header row, a |---| row, then the rows, with each note as a trailing
// line of its own.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	row := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	row(t.Header)
	b.WriteString(strings.Repeat("|---", len(t.Header)) + "|\n")
	for _, r := range t.Rows {
		row(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// gb formats bytes/second as GB/s.
func gb(bw float64) string { return fmt.Sprintf("%.2f", bw/1e9) }
