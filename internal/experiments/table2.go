package experiments

import (
	"fmt"

	"swbfs/internal/core"
	"swbfs/internal/perf"
)

// publishedResult is one row of Table 2 (published distributed-BFS
// results).
type publishedResult struct {
	Authors    string
	Year       int
	Scale      int
	GTEPS      float64
	Processors string
	Arch       string
	Hetero     bool
}

var table2Published = []publishedResult{
	{"Ueno", 2013, 35, 317, "1,366 (16.4K cores) + 4096", "Xeon X5670 + Fermi M2050", true},
	{"Beamer", 2013, 35, 240, "7,187 (115.0K cores)", "Cray XK6", false},
	{"Hiragushi", 2013, 31, 117, "1,024", "Tesla M2090", true},
	{"Checconi", 2014, 40, 15363, "65,536 (1.05M cores)", "Blue Gene/Q", false},
	{"Buluc", 2015, 36, 865.3, "4,817 (115.6K cores)", "Cray XC30", false},
	{"(K Computer)", 2015, 40, 38621.4, "82,944 (663.5K cores)", "SPARC64 VIIIfx", false},
	{"Bisson", 2016, 33, 830, "4,096", "Kepler K20X", true},
}

// paperResult is the present work's published row.
var paperResult = publishedResult{
	Authors: "Present Work (paper)", Year: 2016, Scale: 40, GTEPS: 23755.7,
	Processors: "40,768 (10.6M cores)", Arch: "SW26010", Hetero: true,
}

// headlineNodes is the node count of the paper's headline run; the paper's
// scale-40 problem puts about 2^40 / 40768 ≈ 27M vertices on each node.
const headlineNodes = 40768

// headlinePerNodeVertices is the paper's per-node problem size at scale 40.
const headlinePerNodeVertices = float64(int64(1)<<40) / headlineNodes

// measureHeadline projects the reproduction's full-machine GTEPS from a
// functional Relay-CPE measurement on s.nodes[0] nodes at
// 2^s.perNodeLogs[0] vertices per node, scaling both the node count and
// the per-node problem size to the paper's scale-40 operating point.
func measureHeadline(o Options, s shape) (*measurement, float64, error) {
	m, err := measureBFS(o, s.nodes[0], s.perNodeLogs[0], core.TransportRelay, perf.EngineCPE)
	if err != nil {
		return nil, 0, fmt.Errorf("headline measurement failed: %w", err)
	}
	workRatio := headlinePerNodeVertices / float64(m.perNodeVertices)
	if workRatio < 1 {
		workRatio = 1
	}
	gteps, err := projectWork(m, headlineNodes, workRatio)
	if err != nil {
		return nil, 0, fmt.Errorf("headline projection failed: %w", err)
	}
	return m, gteps, nil
}

// headlineTable sets the headline's measurement and projection beside the
// paper's full-machine result.
func headlineTable(o Options, s shape) (*Table, error) {
	m, gteps, err := measureHeadline(o, s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "headline",
		Title:  "Full-machine GTEPS projection",
		Header: []string{"source", "nodes", "vtx/node", "GTEPS"},
	}
	t.AddRow("functional (measured)", fmt.Sprint(m.nodes), fmt.Sprint(m.perNodeVertices), fmt.Sprintf("%.3f", m.gteps))
	t.AddRow("projected (modelled)", fmt.Sprint(headlineNodes), fmt.Sprintf("%.0f", headlinePerNodeVertices), fmt.Sprintf("%.1f", gteps))
	t.AddRow("paper (measured on TaihuLight)", fmt.Sprint(headlineNodes), fmt.Sprintf("%.0f", headlinePerNodeVertices), fmt.Sprintf("%.1f", paperResult.GTEPS))
	return t, nil
}

// table2 reproduces the cross-system comparison, appending this
// reproduction's modelled full-machine row when the headline run
// completes, and a note naming the failure when it does not.
func table2(o Options, s shape) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Recent distributed BFS results (Table 2)",
		Header: []string{"Authors", "Year", "Scale", "GTEPS", "Processors", "Architecture", "Hetero"},
	}
	rows := append(append([]publishedResult{}, table2Published...), paperResult)
	for _, r := range rows {
		t.AddRow(r.Authors, fmt.Sprint(r.Year), fmt.Sprint(r.Scale),
			fmt.Sprintf("%.1f", r.GTEPS), r.Processors, r.Arch, heteroStr(r.Hetero))
	}
	_, gteps, err := measureHeadline(o, s)
	if err != nil {
		t.AddNote("no reproduction row: %v", err)
		return t, nil
	}
	t.AddRow("This reproduction (modelled)", "2026", "-",
		fmt.Sprintf("%.1f", gteps),
		fmt.Sprintf("%d simulated nodes", headlineNodes), "simulated SW26010", "Hetero.")
	t.AddNote("the reproduction row is a weak-scaling projection from functional runs on the simulated machine; absolute GTEPS are modelled, not testbed measurements")
	return t, nil
}

func heteroStr(h bool) string {
	if h {
		return "Hetero."
	}
	return "Homo."
}
