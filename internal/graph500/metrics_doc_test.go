package graph500

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"swbfs/internal/algos"
	"swbfs/internal/chaos"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/fabric"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// docMetric matches a backticked metric name of the taxonomy's namespaces,
// placeholders such as <class> included.
var docMetric = regexp.MustCompile("`((?:bfs|core|comm|graph500|algos|chaos)(?:\\.[a-z0-9_<>-]+)+)`")

// unreachedMetrics are the documented metrics the runs of
// TestEveryMetricDocumented cannot emit, and why.
var unreachedMetrics = map[string]string{
	"core.stragglers":              "needs a host-time straggler, which no deterministic run guarantees",
	"chaos.injected.kill":          "a kill aborts the run, and an aborted run folds no metrics",
	"chaos.injected.delay-gen":     "a delay stalls host time only; the plan here keeps the runs fast",
	"chaos.injected.delay-handler": "a delay stalls host time only; the plan here keeps the runs fast",
	"chaos.injected.delay-relay":   "a delay stalls host time only; the plan here keeps the runs fast",
	"algos.delta-sssp.runs":        "only the sssp and wcc round kernels run here",
	"algos.pagerank.runs":          "only the sssp and wcc round kernels run here",
	"algos.kcore.runs":             "only the sssp and wcc round kernels run here",
	"algos.betweenness.runs":       "only the sssp and wcc round kernels run here",
}

// documentedMetrics reads the metric names docs/OBSERVABILITY.md names in
// backticks, each placeholder expanded to the values it stands for.
func documentedMetrics(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	var kernels []string
	for _, k := range algos.Kernels {
		if k.Name != core.KernelBFS {
			kernels = append(kernels, k.Name)
		}
	}
	expand := map[string][]string{
		"<class>":               named(fabric.Loopback),
		"<fmt>":                 named(comm.FormatRaw),
		"<kernel>":              kernels,
		"comm.batches.<kind>":   named(comm.KindData),
		"chaos.injected.<kind>": named(chaos.KindSendFail),
	}
	names := map[string]bool{}
	for _, m := range docMetric.FindAllSubmatch(data, -1) {
		todo := []string{string(m[1])}
		for len(todo) > 0 {
			name := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			open := strings.Index(name, "<")
			if open < 0 {
				names[name] = true
				continue
			}
			placeholder := name[open : open+strings.Index(name[open:], ">")+1]
			values, ok := expand[name[:open]+placeholder]
			if !ok {
				values, ok = expand[placeholder]
			}
			if !ok {
				t.Fatalf("%s: no values for placeholder %s", name, placeholder)
			}
			for _, v := range values {
				todo = append(todo, strings.Replace(name, placeholder, v, 1))
			}
		}
	}
	return names
}

// TestEveryMetricDocumented runs one observer through a relay hybrid BFS
// with the adaptive codec, a direct BFS, a WCC round kernel, a BFS under a
// chaos plan that duplicates, drops and fails deliveries (with the
// adaptive codec, which picks both compressed layouts there), a
// checkpointed SSSP benchmark through the harness, and one adaptive batch
// whose pairs span the whole int64 range, which it ships raw. Every metric
// the registry then holds must be documented in docs/OBSERVABILITY.md, and
// every documented metric must be emitted, save the ones unreachedMetrics
// names.
func TestEveryMetricDocumented(t *testing.T) {
	o := obs.New()
	relay := core.Config{
		Nodes: 4, SuperNodeSize: 2, Transport: core.TransportRelay, Engine: perf.EngineCPE,
		DirectionOptimized: true, HubPrefetch: true, SmallMessageMPE: true,
		Codec: comm.AdaptiveCodec{}, Obs: o,
	}
	direct := core.Config{Nodes: 4, SuperNodeSize: 2, Transport: core.TransportDirect, Engine: perf.EngineMPE, Obs: o}
	if _, err := Run(BenchConfig{Scale: 10, EdgeFactor: 16, Seed: 7, Roots: 2, Machine: relay}); err != nil {
		t.Fatalf("relay hybrid BFS: %v", err)
	}
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := graph.Vertex(-1)
	for v := graph.Vertex(0); root < 0; v++ {
		if g.Degree(v) > 0 {
			root = v
		}
	}
	r, err := core.NewRunner(direct, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(root); err != nil {
		t.Fatalf("direct BFS: %v", err)
	}
	wcc := relay
	wcc.Codec = nil
	if _, err := algos.WCC(wcc, g); err != nil {
		t.Fatalf("WCC: %v", err)
	}
	plan, err := chaos.ParsePlan("dup@1:l1:data/forward:0,drop@2:l1:data/forward:0,sendfail@3:l1:data/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	faulted := direct
	faulted.Chaos = &plan
	faulted.Codec = comm.AdaptiveCodec{}
	if r, err = core.NewRunner(faulted, g); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(root); err != nil {
		t.Fatalf("BFS under %s: %v", plan, err)
	}
	checkpointed := direct
	checkpointed.CheckpointEvery = 1
	checkpointed.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt.json")
	if _, err := Run(BenchConfig{Kernel: "sssp", Scale: 9, EdgeFactor: 16, Seed: 7, Roots: 1, Machine: checkpointed}); err != nil {
		t.Fatalf("checkpointed SSSP benchmark: %v", err)
	}
	// Varints of pairs spanning the whole int64 range outweigh 8 bytes a
	// column, so the adaptive codec ships this batch raw.
	net, err := comm.NewNetwork(comm.Config{Nodes: 2, SuperNodeSize: 2, Codec: comm.AdaptiveCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	ep := comm.NewDirectEndpoint(net, 0)
	ep.StartLevel(0, comm.ChanForward)
	span := []comm.Pair{{math.MinInt64, math.MaxInt64}, {math.MaxInt64, math.MinInt64}}
	if err := ep.SendMany(comm.ChanForward, []comm.DstRun{{Dst: 1, N: len(span)}}, span); err != nil {
		t.Fatal(err)
	}
	if err := ep.CloseChannel(comm.ChanForward); err != nil {
		t.Fatal(err)
	}
	net.MetricsInto(o.Metrics)
	net.Close()

	s := o.Metrics.Snapshot()
	emitted := map[string]bool{}
	for _, names := range [][]string{keys(s.Counters), keys(s.Gauges), keys(s.Histograms)} {
		for _, name := range names {
			emitted[name] = true
		}
	}
	documented := documentedMetrics(t)
	for _, name := range sortedKeys(emitted) {
		if !documented[name] {
			t.Errorf("%s is emitted but docs/OBSERVABILITY.md does not document it", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		_, unreached := unreachedMetrics[name]
		switch {
		case !emitted[name] && !unreached:
			t.Errorf("%s is documented but no run emitted it", name)
		case emitted[name] && unreached:
			t.Errorf("%s is emitted: drop it from unreachedMetrics", name)
		}
	}
	for name := range unreachedMetrics {
		if !documented[name] {
			t.Errorf("unreachedMetrics names %s, which docs/OBSERVABILITY.md does not document", name)
		}
	}
}

// named lists the names of first, first+1, ... up to the first value that
// has none (whose String reads like "kind(7)").
func named[T interface {
	~int | ~uint8
	String() string
}](first T) []string {
	var out []string
	for v := first; !strings.HasSuffix(v.String(), fmt.Sprintf("(%d)", v)); v++ {
		out = append(out, v.String())
	}
	return out
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := keys(m)
	sort.Strings(out)
	return out
}
