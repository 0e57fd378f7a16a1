package algos

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

// hostileCheckpoints returns copies of a healthy checkpoint: one from a
// foreign machine, the rest made internally inconsistent in a way a
// fingerprint and a node count cannot see. The healthy checkpoint must
// record at least two completed levels.
func hostileCheckpoints(c *ckpt.Checkpoint) map[string]*ckpt.Checkpoint {
	mutate := func(f func(h *ckpt.Checkpoint)) *ckpt.Checkpoint {
		h := *c
		h.Nodes = append([]ckpt.NodeState(nil), c.Nodes...)
		h.Machine.Work = slices.Clone(c.Machine.Work)
		f(&h)
		return &h
	}
	return map[string]*ckpt.Checkpoint{
		"foreign fingerprint":       mutate(func(h *ckpt.Checkpoint) { h.Fingerprint = "not this machine" }),
		"level ahead of the ledger": mutate(func(h *ckpt.Checkpoint) { h.Level += 3 }),
		"negative level":            mutate(func(h *ckpt.Checkpoint) { h.Level = -1 }),
		"ledger truncated":          mutate(func(h *ckpt.Checkpoint) { h.Machine.Levels = h.Machine.Levels[:1] }),
		"node states swapped":       mutate(func(h *ckpt.Checkpoint) { h.Nodes[0], h.Nodes[1] = h.Nodes[1], h.Nodes[0] }),
		"node id out of place":      mutate(func(h *ckpt.Checkpoint) { h.Nodes[2].ID = 0 }),
		"work row truncated":        mutate(func(h *ckpt.Checkpoint) { h.Machine.Work[1] = h.Machine.Work[1][:1] }),
		"work row missing":          mutate(func(h *ckpt.Checkpoint) { h.Machine.Work = h.Machine.Work[:len(h.Machine.Work)-1] }),
		"work row at a wrong level": mutate(func(h *ckpt.Checkpoint) {
			h.Machine.Work[1] = slices.Clone(h.Machine.Work[1])
			h.Machine.Work[1][0].Level = 0
		}),
		"work ledger absent": mutate(func(h *ckpt.Checkpoint) { h.Machine.Work = nil }),
	}
}

// quietObserver is a fresh observer with every run-announcing sink
// attached, and a subscription that sees whatever gets published.
func quietObserver() (*obs.Observer, <-chan obs.LiveEvent) {
	o := obs.New()
	o.Flight = obs.NewFlightRecorder(0)
	o.Progress = obs.NewProgressBroker()
	events, _ := o.Progress.Subscribe(64)
	return o, events
}

// checkSilent fails unless the observer saw nothing at all: a rejected
// resume must publish no run-start (there would be no run-done to pair it
// with), open no flight run and record no run.
func checkSilent(t *testing.T, o *obs.Observer, events <-chan obs.LiveEvent) {
	t.Helper()
	select {
	case ev := <-events:
		t.Errorf("rejected resume published %q", ev.Kind)
	default:
	}
	if d := o.Flight.Dump(); len(d.Runs) != 0 || len(d.Events) != 0 {
		t.Errorf("rejected resume touched the flight recorder: %d runs, %d events", len(d.Runs), len(d.Events))
	}
	if n := o.Trace.Len(); n != 0 {
		t.Errorf("rejected resume recorded %d runs", n)
	}
}

// TestHostileCheckpointRejected feeds internally inconsistent checkpoints
// of both engines — BFS and a round kernel — through the table's resume:
// each must be refused with an error before anything is announced (one
// whose work ledger is off, with an error naming it), and the healthy
// original must still resume. A WCC or SSSP payload in the format from
// before the two shared a kernel is refused too.
func TestHostileCheckpointRejected(t *testing.T) {
	g := kron(t, 9, 21)
	wg := &graph.WeightedCSR{CSR: g}
	root := testutil.FirstConnected(t, g)
	cfg := ckptMachine(core.TransportRelay)
	for _, kernel := range []string{"bfs", "wcc"} {
		healthy := healthyCheckpoint(t, cfg, wg, root, kernel, "")
		if len(healthy.Machine.Levels) < 2 {
			t.Fatalf("%s: no usable checkpoint", kernel)
		}
		for what, hostile := range hostileCheckpoints(healthy) {
			t.Run(kernel+"/"+what, func(t *testing.T) {
				o, events := quietObserver()
				rcfg := cfg
				rcfg.Obs = o
				_, err := resume(rcfg, wg, hostile)
				if err == nil {
					t.Fatal("hostile checkpoint resumed")
				}
				if strings.HasPrefix(what, "work") && !strings.Contains(err.Error(), "work ledger") {
					t.Fatalf("refused without naming the work ledger: %v", err)
				}
				checkSilent(t, o, events)
			})
		}
		if _, err := resume(cfg, wg, healthy); err != nil {
			t.Fatalf("%s: healthy checkpoint refused: %v", kernel, err)
		}
	}
	// WCC and SSSP once wrote their values under their own keys ("label",
	// "dist"); the kernel they share reads "value". A payload in the old
	// format must be refused, not loaded as zeroed state. The kernel reads
	// its payload once the machine is open, so this refusal comes after the
	// run is announced.
	wwg := testutil.Weighted(t, g, 9)
	for kernel, key := range map[string]string{"wcc": "label", "sssp": "dist"} {
		healthy := healthyCheckpoint(t, cfg, wwg, root, kernel, "")
		t.Run(kernel+"/payload keyed "+key, func(t *testing.T) {
			old := *healthy
			old.Nodes = slices.Clone(healthy.Nodes)
			for i := range old.Nodes {
				old.Nodes[i].Data = renamePayloadKey(t, old.Nodes[i].Data, "value", key)
			}
			_, err := resume(cfg, wwg, &old)
			if err == nil || !strings.Contains(err.Error(), "0 values") {
				t.Fatalf("payload in the old format: %v, want a refusal naming its missing values", err)
			}
		})
		if _, err := resume(cfg, wwg, healthy); err != nil {
			t.Fatalf("%s: healthy checkpoint refused: %v", kernel, err)
		}
	}
}

// renamePayloadKey returns a node's checkpoint data with the kernel
// payload's key named from renamed to the name to.
func renamePayloadKey(t *testing.T, raw []byte, from, to string) []byte {
	t.Helper()
	var data driverNodeData
	if err := json.Unmarshal(raw, &data); err != nil {
		t.Fatal(err)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(data.Algo, &payload); err != nil {
		t.Fatal(err)
	}
	v, ok := payload[from]
	if !ok {
		t.Fatalf("payload has no %q key", from)
	}
	delete(payload, from)
	payload[to] = v
	var err error
	if data.Algo, err = json.Marshal(payload); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(&data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// healthyCheckpoint runs kernel through the table with a checkpoint at
// every boundary and returns the last one written.
func healthyCheckpoint(t *testing.T, cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, kernel, args string) *ckpt.Checkpoint {
	t.Helper()
	k, err := KernelByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointEvery = 1
	cfg.CheckpointPath = filepath.Join(t.TempDir(), kernel+".ckpt.json")
	if _, err := k.Run(cfg, wg, root, args, nil); err != nil {
		t.Fatalf("%s: %v", kernel, err)
	}
	c, err := ckpt.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHostileArgsRefused edits the arguments (or the kernel name) of a
// healthy kernel checkpoint and resumes it through the table, as the CLIs
// do: every row must be refused with an error before the run starts, with
// nothing emitted, and never panic.
func TestHostileArgsRefused(t *testing.T) {
	g := kron(t, 8, 21)
	wg := testutil.Weighted(t, g, 9)
	root := testutil.FirstConnected(t, g)
	cfg := ckptMachine(core.TransportDirect)
	healthy := map[string]*ckpt.Checkpoint{
		"kcore":       healthyCheckpoint(t, cfg, wg, root, "kcore", "k=4"),
		"pagerank":    healthyCheckpoint(t, cfg, wg, root, "pagerank", "iterations=5 damping=0.85"),
		"betweenness": healthyCheckpoint(t, cfg, wg, root, "betweenness", fmt.Sprintf("sources=[%d]", root)),
	}
	for _, row := range []struct {
		name, kernel string
		edit         func(c *ckpt.Checkpoint)
	}{
		{"leading zero", "kcore", func(c *ckpt.Checkpoint) { c.Args = "k=04" }},
		{"empty value", "kcore", func(c *ckpt.Checkpoint) { c.Args = "k=" }},
		{"negative k", "kcore", func(c *ckpt.Checkpoint) { c.Args = "k=-1" }},
		{"damping out of range", "pagerank", func(c *ckpt.Checkpoint) { c.Args = "iterations=5 damping=1.5" }},
		{"source not a vertex", "betweenness", func(c *ckpt.Checkpoint) { c.Args = "sources=[1 x]" }},
		{"trailing junk", "kcore", func(c *ckpt.Checkpoint) { c.Args = "k=4 junk" }},
		{"unknown kernel", "kcore", func(c *ckpt.Checkpoint) { c.Kernel = "kcore2" }},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := *healthy[row.kernel]
			row.edit(&c)
			o, events := quietObserver()
			rcfg := cfg
			rcfg.Obs = o
			_, err := resume(rcfg, wg, &c)
			if err == nil {
				t.Fatalf("checkpoint with kernel %q args %q resumed", c.Kernel, c.Args)
			}
			t.Logf("refused: %v", err)
			checkSilent(t, o, events)
		})
	}
	for kernel, c := range healthy {
		if _, err := resume(cfg, wg, c); err != nil {
			t.Fatalf("%s: healthy checkpoint refused: %v", kernel, err)
		}
	}
}

// TestDeltaResumeRejectsForeignLocal: a delta-stepping checkpoint whose
// request set names a local the node does not own is refused with an
// error before the run starts, not indexed out of range mid-run.
func TestDeltaResumeRejectsForeignLocal(t *testing.T) {
	g := kron(t, 8, 21)
	wg := testutil.Weighted(t, g, 9)
	root := testutil.FirstConnected(t, g)
	c := healthyCheckpoint(t, ckptMachine(core.TransportDirect), wg, root, "delta-sssp", "delta=16")
	var data driverNodeData
	var state deltaCkpt
	err := json.Unmarshal(c.Nodes[0].Data, &data)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data.Algo, &state); err != nil {
		t.Fatal(err)
	}
	state.LightReq = append(state.LightReq, int64(len(state.Dist)))
	if data.Algo, err = json.Marshal(&state); err != nil {
		t.Fatal(err)
	}
	if c.Nodes[0].Data, err = json.Marshal(&data); err != nil {
		t.Fatal(err)
	}
	if _, err := resume(ckptMachine(core.TransportDirect), wg, c); err == nil {
		t.Fatal("request for a local past the partition accepted")
	}
}

// TestKernelsRefuseHostileInput runs every kernel of the table on input no
// kernel can run on: each case must come back as an error, never a panic.
// The configuration and the graph are refused before anything is
// allocated per node, a weighted kernel's weights before any node reads
// them.
func TestKernelsRefuseHostileInput(t *testing.T) {
	g := kron(t, 6, 1)
	wg := testutil.Weighted(t, g, 9)
	args := ckptArgs(0)
	type input struct {
		cfg core.Config
		wg  *graph.WeightedCSR
	}
	fine := machine(4, core.TransportDirect)
	for _, k := range Kernels {
		cases := map[string]input{
			"nodes -1":  {machine(-1, core.TransportDirect), wg},
			"nil graph": {fine, &graph.WeightedCSR{}},
		}
		if k.Weighted {
			cases["no weights"] = input{fine, &graph.WeightedCSR{CSR: g}}
			cases["weights short of the edges"] = input{fine, &graph.WeightedCSR{CSR: g, Weights: &graph.Weights{W: wg.Weights.W[:1]}}}
		}
		for name, c := range cases {
			t.Run(k.Name+"/"+name, func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				if res, err := k.Run(c.cfg, c.wg, 0, args[k.Name], nil); err == nil {
					t.Fatalf("ran to %T, want an error", res)
				}
			})
		}
	}
}
