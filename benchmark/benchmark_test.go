package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"swbfs/internal/graph"
)

// manifest mirrors BENCHMARK.json at the repo root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// BENCHMARK.json is a projection of the tables in metrics.go and
// workloads.go; neither may drift from the other.
func TestManifestMatchesLedger(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", m.Paths)
	}
	ws := workloads(false)
	if len(m.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d defined", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest has %q (%q), program has %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the manifest allows 200", w.Name, len(w.Why))
		}
	}

	var gated []metricDef
	for _, d := range endToEnd {
		if d.Gated {
			gated = append(gated, d)
		}
	}
	check := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d metrics declared, %d in the ledger", kind, len(declared), len(defs))
		}
		for _, mm := range declared {
			d, ok := defByName(defs, mm.Name)
			if !ok {
				t.Errorf("%s: %s is declared but not in the ledger", kind, mm.Name)
				continue
			}
			if mm.Unit != d.Unit || mm.Better != d.Better {
				t.Errorf("%s: %s declared as %s/%s, ledger says %s/%s", kind, mm.Name, mm.Unit, mm.Better, d.Unit, d.Better)
			}
			if bounded && (mm.Bound == nil || *mm.Bound != d.Bound) {
				t.Errorf("%s: %s bound %v, ledger says %v", kind, mm.Name, mm.Bound, d.Bound)
			}
			if !bounded && mm.Bound != nil {
				t.Errorf("%s: %s carries a bound; per-layer metrics have none", kind, mm.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, gated, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuickWorkloads runs the -quick shape of all four workloads through
// both passes, twice, and checks (a) that the result lines carry exactly the
// metrics BENCHMARK.json declares, with its units, and (b) that every
// modelled metric repeats to the last digit.
func TestQuickWorkloads(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloads(true) {
		t.Run(w.Name, func(t *testing.T) {
			var lines [2]struct{ e2e, layers resultLine }
			var all [2]struct{ e2e, layers values }
			for run := range lines {
				v, meas, err := runUntraced(w, 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				if meas.failed != 0 || len(meas.samples) != w.Ops {
					t.Fatalf("untraced pass: %d of %d ops failed: %v", meas.failed, len(meas.samples), meas.failures)
				}
				tr, err := runTraced(w, 1)
				if err != nil {
					t.Fatal(err)
				}
				if tr.failed != 0 {
					t.Fatalf("traced pass: %d ops failed: %v", tr.failed, tr.failures)
				}
				lines[run].e2e = resultLine{Metrics: map[string]lineMetric{}}
				lines[run].e2e.add(endToEnd, v, true)
				lines[run].layers = resultLine{Metrics: map[string]lineMetric{}}
				lines[run].layers.add(perLayer, tr.layers, false)
				all[run].e2e, all[run].layers = v, tr.layers
			}

			for _, c := range []struct {
				kind     string
				declared []manifestMetric
				emitted  map[string]lineMetric
			}{
				{"end_to_end", m.EndToEnd, lines[0].e2e.Metrics},
				{"per_layer", m.PerLayer, lines[0].layers.Metrics},
			} {
				for _, mm := range c.declared {
					got, ok := c.emitted[mm.Name]
					if !ok {
						t.Errorf("%s: %s is declared but not emitted", c.kind, mm.Name)
					} else if got.Unit != mm.Unit {
						t.Errorf("%s: %s emitted in %q, declared in %q", c.kind, mm.Name, got.Unit, mm.Unit)
					}
				}
				for name := range c.emitted {
					if !metricName.MatchString(name) {
						t.Errorf("%s: emitted name %q is not a valid metric name", c.kind, name)
					}
					found := false
					for _, mm := range c.declared {
						found = found || mm.Name == name
					}
					if !found {
						t.Errorf("%s: %s is emitted but not declared", c.kind, name)
					}
				}
			}
			for name, x := range lines[0].e2e.Metrics {
				if x.Value == 0 {
					t.Errorf("end-to-end metric %s reads 0", name)
				}
			}

			for _, d := range endToEnd {
				if d.Clock != clockHost && all[0].e2e[d.Name] != all[1].e2e[d.Name] {
					t.Errorf("%s: %v then %v; a modelled metric must repeat exactly", d.Name, all[0].e2e[d.Name], all[1].e2e[d.Name])
				}
			}
			for _, d := range perLayer {
				if d.Clock == clockModelled && all[0].layers[d.Name] != all[1].layers[d.Name] {
					t.Errorf("%s: %v then %v; a modelled metric must repeat exactly", d.Name, all[0].layers[d.Name], all[1].layers[d.Name])
				}
			}
		})
	}
}

// A parent map that no longer describes a BFS tree must be counted as a
// failed op, and only that op.
func TestCorruptedParentMapIsCounted(t *testing.T) {
	w, err := workloadByName("bfs-topdown-relay", true)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := setup(w, 1, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	inst.prepareOracles()
	inst.mutate = func(op int, out *opOutput) {
		if op != 1 {
			return
		}
		root := inst.roots[op]
		for v, p := range out.parent {
			if graph.Vertex(v) != root && p != graph.NoVertex {
				out.parent[v] = graph.Vertex(v) // a second self-parented vertex
				return
			}
		}
	}
	p := &pass{inst: inst, runner: inst.runner}
	meas := p.timedPhase(0)
	if meas.failed != 1 || meas.samples[1].err == nil {
		t.Fatalf("failed = %d (%v), want exactly op 1", meas.failed, meas.failures)
	}
	if meas.samples[0].err != nil || meas.samples[2].err != nil {
		t.Errorf("clean ops reported as failed: %v", meas.failures)
	}
	v := endToEndValues(w, meas, nil)
	if v["failed_ops"] != 1 {
		t.Errorf("failed_ops = %v, want 1", v["failed_ops"])
	}
}

// A kernels op whose labels are off by one vertex fails the oracle check.
func TestCorruptedLabelsAreCounted(t *testing.T) {
	w, err := workloadByName("kernels-wcc-pagerank", true)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := setup(w, 1, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	inst.prepareOracles()
	inst.mutate = func(op int, out *opOutput) {
		if op == 0 {
			out.labels[len(out.labels)-1]++
		}
	}
	p := &pass{inst: inst}
	if s := p.runOp(0); s.err == nil {
		t.Fatal("labels differing from the union-find oracle were accepted")
	}
}

func TestUnionFindLabelsAreComponentMinima(t *testing.T) {
	// Two triangles and an isolated vertex.
	edges := []graph.Edge{{From: 5, To: 3}, {From: 3, To: 4}, {From: 4, To: 5}, {From: 0, To: 2}, {From: 2, To: 1}}
	g, err := graph.BuildCSR(7, edges)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Vertex{0, 0, 0, 3, 3, 3, 6}
	for v, l := range unionFindLabels(g) {
		if l != want[v] {
			t.Errorf("label[%d] = %d, want %d", v, l, want[v])
		}
	}
}
