package experiments

import (
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"testing"

	"swbfs/internal/chaos"
	"swbfs/internal/core"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("n=%d", 3)
	var sb strings.Builder
	tab.Print(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "a  bb", "note: n=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSVAndJSON(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	tab.AddRow("1", "two, with comma")
	tab.AddNote("hello")

	var csvOut strings.Builder
	if err := tab.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvOut.String(), `"two, with comma"`) {
		t.Fatalf("comma not quoted:\n%s", csvOut.String())
	}
	if !strings.Contains(csvOut.String(), "# hello") {
		t.Fatal("note missing from CSV")
	}

	var jsonOut strings.Builder
	if err := tab.WriteJSON(&jsonOut); err != nil {
		t.Fatal(err)
	}
	var decoded Table
	if err := json.Unmarshal([]byte(jsonOut.String()), &decoded); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if decoded.ID != "x" || len(decoded.Rows) != 1 || decoded.Rows[0][1] != "two, with comma" {
		t.Fatalf("decoded = %+v", decoded)
	}
}

func TestTable1(t *testing.T) {
	tab := table1()
	if len(tab.Rows) != 7 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestFig3Shape(t *testing.T) {
	tab := fig3()
	// Parse the cluster column: monotone non-decreasing; saturated at the
	// end; MPE column capped below cluster peak.
	var prev float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("cluster bandwidth decreased at chunk %s", row[0])
		}
		prev = v
	}
	if prev < 28.8 {
		t.Fatalf("cluster bandwidth tops at %.2f, want ~28.9", prev)
	}
	lastMPE, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][2], 64)
	if lastMPE > 9.5 {
		t.Fatalf("MPE bandwidth %.2f exceeds its 9.4 peak", lastMPE)
	}
}

func TestFig5Shape(t *testing.T) {
	tab := fig5()
	first, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
	if first > last/5 {
		t.Fatalf("1-CPE bandwidth %.2f too close to full-cluster %.2f", first, last)
	}
}

func TestRegBusWithinEnvelope(t *testing.T) {
	tab, err := regBus(4000)
	if err != nil {
		t.Fatal(err)
	}
	measured, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	ceiling, _ := strconv.ParseFloat(tab.Rows[2][1], 64)
	if measured <= 0 || measured > ceiling*1.2 {
		t.Fatalf("mesh throughput %.2f GB/s outside envelope (ceiling %.2f)", measured, ceiling)
	}
}

func TestRelayBWParity(t *testing.T) {
	tab := relayBW()
	direct, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	relay, _ := strconv.ParseFloat(tab.Rows[1][1], 64)
	// Paper: "no bandwidth difference between the two settings exists".
	if relay < 0.95*direct {
		t.Fatalf("relay %.2f GB/s much slower than direct %.2f GB/s", relay, direct)
	}
}

func TestMsgCountTable(t *testing.T) {
	tab := msgCount()
	var found bool
	for _, row := range tab.Rows {
		if row[0] == "40000" {
			found = true
			if row[2] != "3.8 GB" && row[2] != "4.0 GB" {
				t.Fatalf("direct MPI memory at 40000 nodes = %s, want ~4 GB", row[2])
			}
			if !strings.Contains(row[5], "MB") {
				t.Fatalf("relay MPI memory at 40000 nodes = %s, want ~40 MB", row[5])
			}
		}
	}
	if !found {
		t.Fatal("40000-node row missing")
	}
}

// TestMsgCountMarkdown pins what `swbfs-bench -format markdown msgcount`
// prints: the layout of EXPERIMENTS.md's tables, on a table with fixed
// cells.
func TestMsgCountMarkdown(t *testing.T) {
	var got strings.Builder
	if err := msgCount().WriteMarkdown(&got); err != nil {
		t.Fatal(err)
	}
	const want = `| nodes | direct conns | direct MPI mem | group N x M | relay conns | relay MPI mem |
|---|---|---|---|---|---|
| 256 | 256 | 25.0 MB | 2 x 128 | 129 | 12.6 MB |
| 1024 | 1024 | 100.0 MB | 8 x 128 | 135 | 13.2 MB |
| 4096 | 4096 | 400.0 MB | 32 x 128 | 159 | 15.5 MB |
| 16384 | 16384 | 1.6 GB | 128 x 128 | 255 | 24.9 MB |
| 40000 | 40000 | 3.8 GB | 200 x 200 | 399 | 39.0 MB |

note: paper: 40,000 nodes -> ~4 GB direct vs ~40 MB with 200x200 groups
`
	if got.String() != want {
		t.Fatalf("markdown:\n%s\nwant:\n%s", got.String(), want)
	}
}

// tiny is the options of the functional tests: one or two roots, a fixed
// seed.
func tiny(roots int, seed int64) Options { return Options{Roots: roots, Seed: seed} }

func TestMeasureBFSSmall(t *testing.T) {
	m, err := measureBFS(tiny(2, 7), 4, 8, core.TransportRelay, perf.EngineCPE)
	if err != nil {
		t.Fatalf("measurement crashed: %v", err)
	}
	if m.gteps <= 0 || m.edges <= 0 || len(m.levels) == 0 {
		t.Fatalf("measurement empty: %+v", m)
	}
}

func TestMeasureBFSRejectsNonPow2(t *testing.T) {
	if _, err := measureBFS(tiny(1, 1), 3, 8, core.TransportDirect, perf.EngineMPE); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}

func TestProjectionMonotoneAndCrashes(t *testing.T) {
	m, err := measureBFS(tiny(2, 7), 4, 8, core.TransportRelay, perf.EngineCPE)
	if err != nil {
		t.Fatal(err)
	}
	p1, err1 := project(m, 256)
	p2, err2 := project(m, 4096)
	if err1 != nil || err2 != nil {
		t.Fatalf("relay projection crashed: %v %v", err1, err2)
	}
	if p2 <= p1 {
		t.Fatalf("relay weak scaling not increasing: %.3f -> %.3f", p1, p2)
	}
	if _, err := project(m, 2); err == nil {
		t.Fatal("projection below measurement size accepted")
	}

	// Direct transports must crash at the paper's crash points.
	d, err := measureBFS(tiny(2, 7), 4, 8, core.TransportDirect, perf.EngineCPE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := project(d, 1024); crashCell(err) != "CRASH(SPM)" {
		t.Fatalf("Direct CPE at 1024 nodes should crash with SPM: %v", err)
	}
	dm, err := measureBFS(tiny(2, 7), 4, 8, core.TransportDirect, perf.EngineMPE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := project(dm, 4096); err != nil {
		t.Fatalf("Direct MPE at 4096 should survive: %v", err)
	}
	if _, err := project(dm, 16384); crashCell(err) != "CRASH(MPI mem)" {
		t.Fatalf("Direct MPE at 16384 should crash with MPI memory: %v", err)
	}
}

// TestProjectionCrossValidates holds the weak-scaling projection to
// account: project a 4-node measurement to 16 and 64 nodes and compare
// against actual functional runs at those sizes. The modelled rows of
// fig11/fig12 are only as good as this error envelope (empirically
// 0.7-1.4x; the test allows 2x either way before failing).
func TestProjectionCrossValidates(t *testing.T) {
	for _, cfg := range []struct {
		tr core.Transport
		en perf.Engine
	}{
		{core.TransportRelay, perf.EngineCPE},
		{core.TransportDirect, perf.EngineMPE},
	} {
		m4, err := measureBFS(tiny(2, 5), 4, 11, cfg.tr, cfg.en)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []int{16, 64} {
			measured, err := measureBFS(tiny(2, 5), target, 11, cfg.tr, cfg.en)
			if err != nil {
				t.Fatal(err)
			}
			projected, err := project(m4, target)
			if err != nil {
				t.Fatal(err)
			}
			ratio := projected / measured.gteps
			if ratio < 0.5 || ratio > 2.0 {
				t.Fatalf("%v/%v at %d nodes: projection %.3f vs measured %.3f (ratio %.2f) outside 2x envelope",
					cfg.tr, cfg.en, target, projected, measured.gteps, ratio)
			}
		}
	}
}

func TestFig11TinyShape(t *testing.T) {
	tab, err := fig11(tiny(1, 3), shape{nodes: []int{1, 4}, projected: []int{1024, 16384}, perNodeLogs: []int{13}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	byNodes := map[string][]string{}
	for _, row := range tab.Rows {
		byNodes[row[0]] = row
	}
	// At 1024 projected nodes: Direct CPE crashed by SPM.
	if !strings.Contains(byNodes["1024"][2], "SPM") {
		t.Fatalf("Direct CPE at 1024 = %q, want SPM crash", byNodes["1024"][2])
	}
	// At 16384: Direct MPE crashed by MPI memory.
	if !strings.Contains(byNodes["16384"][1], "MPI") {
		t.Fatalf("Direct MPE at 16384 = %q, want MPI crash", byNodes["16384"][1])
	}
	// Relay CPE alive everywhere and ~10x Relay MPE at 4 nodes.
	relayCPE, err := strconv.ParseFloat(byNodes["4"][4], 64)
	if err != nil {
		t.Fatalf("Relay CPE cell: %v", err)
	}
	relayMPE, _ := strconv.ParseFloat(byNodes["4"][3], 64)
	ratio := relayCPE / relayMPE
	// Scaled-down runs are partly latency-bound, so the full 10x gap
	// needs paper-sized per-node problems; demand a clear CPE win here.
	if ratio < 1.5 || ratio > 40 {
		t.Fatalf("Relay CPE/MPE ratio %.1f implausible", ratio)
	}
}

func TestFig12TinyShape(t *testing.T) {
	tab, err := fig12(tiny(1, 5), shape{nodes: []int{4}, projected: []int{256}, perNodeLogs: []int{7, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Larger per-node size must win at the projected scale.
	small, _ := strconv.ParseFloat(tab.Rows[1][1], 64)
	large, _ := strconv.ParseFloat(tab.Rows[1][2], 64)
	if large <= small {
		t.Fatalf("weak scaling: larger size %.3f not above smaller %.3f", large, small)
	}
}

// TestStrongScalingSkippedFirstRow holds speedup and efficiency to the
// first row that ran: with 3 nodes skipped, the 4-node row is the base and
// reads 1.00x at 100%.
func TestStrongScalingSkippedFirstRow(t *testing.T) {
	tab, err := strongScaling(tiny(1, 9), shape{nodes: []int{3, 4, 8}, scale: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || !strings.HasPrefix(tab.Rows[0][1], "skip") {
		t.Fatalf("rows = %v", tab.Rows)
	}
	if base := tab.Rows[1]; base[0] != "4" || base[2] != "1.00x" || base[3] != "100%" {
		t.Fatalf("base row = %v, want 4 nodes at 1.00x and 100%%", base)
	}
	speedup, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[2][2], "x"), 64)
	if err != nil {
		t.Fatal(err)
	}
	eff, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[2][3], "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := speedup / 2 * 100; math.Abs(eff-want) > 1 {
		t.Fatalf("8-node efficiency %v%%, want speedup %.2fx over twice the nodes = %.0f%%", eff, speedup, want)
	}
}

func TestTable2(t *testing.T) {
	tab, err := table2(tiny(1, 11), shape{nodes: []int{64}, perNodeLogs: []int{7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 7 published + paper + reproduction
		t.Fatalf("%d rows", len(tab.Rows))
	}
	var sb strings.Builder
	tab.Print(&sb)
	if !strings.Contains(sb.String(), "23755.7") {
		t.Fatal("paper headline missing")
	}
}

// TestTable2NotesFailedHeadline: when the headline run is killed, table2
// keeps the published rows, adds no reproduction row, and says why in a
// note.
func TestTable2NotesFailedHeadline(t *testing.T) {
	plan, err := chaos.ParsePlan("kill@2:l1:data/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	o := tiny(1, 11)
	o.Host.ChaosPlan = &plan
	tab, err := table2(o, shape{nodes: []int{4}, perNodeLogs: []int{7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 { // 7 published + paper
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if len(tab.Notes) != 1 || !strings.Contains(tab.Notes[0], "no reproduction row: headline measurement failed") {
		t.Fatalf("notes = %q, want one naming the failed headline", tab.Notes)
	}
}

func TestAblationsTiny(t *testing.T) {
	tab, err := ablations(tiny(1, 9), shape{nodes: []int{4}, scale: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if tab.Rows[0][0] != "production (all on)" || tab.Rows[0][3] != "1.00x" {
		t.Fatalf("baseline row = %v", tab.Rows[0])
	}
	for _, row := range tab.Rows {
		if row[1] == "CRASH" {
			t.Fatalf("variant %q crashed at tiny scale", row[0])
		}
	}
}

func TestPolicySweepTiny(t *testing.T) {
	tab, err := policySweep(tiny(1, 9), shape{nodes: []int{4}, scale: 11})
	if err != nil {
		t.Fatal(err)
	}
	// 3x3 grid + baseline.
	if len(tab.Rows) != 10 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Baseline (last row) must report zero bottom-up levels.
	if tab.Rows[9][3] != "0" {
		t.Fatalf("top-down baseline ran bottom-up levels: %v", tab.Rows[9])
	}
	// Aggressive alpha=2 must go bottom-up at least as often as alpha=14,
	// at the same beta.
	for b := range policyBetas {
		aggressive, _ := strconv.Atoi(tab.Rows[b][3])
		moderate, _ := strconv.Atoi(tab.Rows[len(policyBetas)+b][3])
		if aggressive < moderate {
			t.Fatalf("alpha sensitivity inverted: %v vs %v", tab.Rows[b], tab.Rows[len(policyBetas)+b])
		}
	}
}

func TestHeadlineTiny(t *testing.T) {
	tab, err := headlineTable(tiny(1, 11), shape{nodes: []int{64}, perNodeLogs: []int{7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %v", tab.Rows)
	}
	projected := tab.Rows[1]
	if gteps, err := strconv.ParseFloat(projected[3], 64); err != nil || gteps <= 0 {
		t.Fatalf("headline projection: %v", projected)
	}
	if projected[1] != strconv.Itoa(headlineNodes) {
		t.Fatalf("projection nodes = %s", projected[1])
	}
}

// TestEachPointMeasuredOnce builds the artifacts that share machine points
// — Figures 11 and 12, Table 2 and the headline — with one observer, and
// holds each build's bfs.runs to the roots of the points no earlier build
// measured: fig12 reuses fig11's Relay CPE column, the headline Table 2's
// run. No memoized report keeps its graph.
func TestEachPointMeasuredOnce(t *testing.T) {
	o := Options{Size: Quick, Host: core.Host{Obs: obs.New()}}.withDefaults()
	runs := o.Host.Obs.Metrics.Counter("bfs.runs")
	type point struct {
		nodes int
		curve
	}
	measured := map[point]bool{}
	for _, id := range []string{"fig11", "fig12", "table2", "headline"} {
		a, _ := artifactByID(id)
		s := a.sizes[Quick]
		nodes, curves := s.nodes[:1], []curve{{core.TransportRelay, perf.EngineCPE, s.perNodeLogs[0]}}
		switch id {
		case "fig11":
			nodes, curves = s.nodes, nil
			for _, tr := range []core.Transport{core.TransportDirect, core.TransportRelay} {
				for _, en := range []perf.Engine{perf.EngineMPE, perf.EngineCPE} {
					curves = append(curves, curve{tr, en, s.perNodeLogs[0]})
				}
			}
		case "fig12":
			nodes, curves = s.nodes, nil
			for _, l := range s.perNodeLogs {
				curves = append(curves, curve{core.TransportRelay, perf.EngineCPE, l})
			}
		}
		var fresh int64
		for _, n := range nodes {
			for _, c := range curves {
				if p := (point{n, c}); !measured[p] {
					measured[p] = true
					fresh++
				}
			}
		}
		before := runs.Value()
		if _, err := a.Build(o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got, want := runs.Value()-before, fresh*int64(o.Roots); got != want {
			t.Errorf("%s ran %d BFS runs, want %d: %d new points of %d roots", id, got, want, fresh, o.Roots)
		}
	}
	memo.Lock()
	defer memo.Unlock()
	for k, run := range memo.runs {
		if k.o == o && run.r != nil && run.r.Config.Graph != nil {
			t.Fatalf("memoized report of %d nodes at scale %d keeps its graph", k.cfg.Nodes, k.scale)
		}
	}
}

// TestGridBuildsEachScaleOnce: quick Figure 12 shares scales between its
// node counts (2^7 vertices per node on 16 nodes is 2^9 on 4), and measures
// its points in scale order, so bench builds each scale's graph once though
// it keeps only the newest. The options are this test's own, so none of
// its points is memoized, and the cached graph is dropped first.
func TestGridBuildsEachScaleOnce(t *testing.T) {
	o := Options{Roots: 1, Size: Quick}.withDefaults()
	a, _ := artifactByID("fig12")
	s := a.sizes[Quick]
	scales := map[int]bool{}
	for _, nodes := range s.nodes {
		for _, l := range s.perNodeLogs {
			scales[l+bits.TrailingZeros(uint(nodes))] = true
		}
	}
	memo.Lock()
	memo.graph = nil
	before := memo.builds
	memo.Unlock()
	if _, err := a.Build(o); err != nil {
		t.Fatal(err)
	}
	memo.Lock()
	defer memo.Unlock()
	if got := memo.builds - before; got != len(scales) {
		t.Fatalf("quick fig12 built %d graphs for its %d scales", got, len(scales))
	}
}
