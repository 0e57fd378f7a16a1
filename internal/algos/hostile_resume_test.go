package algos

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"swbfs/internal/chaos"
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
// with), open no flight run, record no run and leave /debug/checkpoint
// serving what it did (here: nothing).
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
	if o.Checkpoint != nil {
		t.Error("rejected resume took over /debug/checkpoint")
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
	// format must be refused, not loaded as zeroed state, and before the run
	// is announced.
	wwg := testutil.Weighted(t, g, 9)
	for kernel, key := range map[string]string{"wcc": "label", "sssp": "dist"} {
		healthy := healthyCheckpoint(t, cfg, wwg, root, kernel, "")
		t.Run(kernel+"/payload keyed "+key, func(t *testing.T) {
			old := *healthy
			old.Nodes = slices.Clone(healthy.Nodes)
			for i := range old.Nodes {
				old.Nodes[i].Data = editState(t, old.Nodes[i].Data, func(fields map[string]json.RawMessage) {
					fields[key] = fields["value"]
					delete(fields, "value")
				})
			}
			o, events := quietObserver()
			rcfg := cfg
			rcfg.Obs = o
			_, err := resume(rcfg, wwg, &old)
			checkNamesField(t, err, "algo.value")
			checkSilent(t, o, events)
		})
		if _, err := resume(cfg, wwg, healthy); err != nil {
			t.Fatalf("%s: healthy checkpoint refused: %v", kernel, err)
		}
	}
}

// editState returns a node payload with edit applied to its kernel's
// fields: the payload's own for BFS, the ones under "algo" for a round
// kernel.
func editState(t *testing.T, raw []byte, edit func(fields map[string]json.RawMessage)) []byte {
	t.Helper()
	var outer map[string]json.RawMessage
	if err := json.Unmarshal(raw, &outer); err != nil {
		t.Fatal(err)
	}
	fields := outer
	inner, wrapped := outer["algo"]
	if wrapped {
		fields = nil
		if err := json.Unmarshal(inner, &fields); err != nil {
			t.Fatal(err)
		}
	}
	edit(fields)
	var err error
	if wrapped {
		if outer["algo"], err = json.Marshal(fields); err != nil {
			t.Fatal(err)
		}
	}
	out, err := json.Marshal(outer)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkNamesField fails unless err refuses a resume with a *ckpt.StateError
// naming field.
func checkNamesField(t *testing.T, err error, field string) {
	t.Helper()
	var se *ckpt.StateError
	if !errors.As(err, &se) || se.Field != field {
		t.Fatalf("resume returned %v, want a *ckpt.StateError naming %q", err, field)
	}
}

// healthyCheckpoint runs kernel through the table with a checkpoint at
// every boundary and returns the last one written.
func healthyCheckpoint(t *testing.T, cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, kernel, args string) *ckpt.Checkpoint {
	t.Helper()
	return checkpointEvery(t, cfg, wg, root, kernel, args, 1)
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
	cfg := ckptMachine(core.TransportDirect)
	c := healthyCheckpoint(t, cfg, wg, root, "delta-sssp", "delta=16")
	c.Nodes = slices.Clone(c.Nodes)
	c.Nodes[0].Data = editState(t, c.Nodes[0].Data, func(fields map[string]json.RawMessage) {
		var dist []int64
		if err := json.Unmarshal(fields["dist"], &dist); err != nil {
			t.Fatal(err)
		}
		fields["light_req"] = []byte(fmt.Sprintf("[%d]", len(dist)))
	})
	o, events := quietObserver()
	cfg.Obs = o
	_, err := resume(cfg, wg, c)
	checkNamesField(t, err, "algo.light_req")
	checkSilent(t, o, events)
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

// A field's kind says how a hostile checkpoint breaks it, on top of
// dropping it: a fixed-length field (one entry per local, or a bitmap's
// words) loses its last entry, a local list gains a local past the graph,
// an enumeration takes a value past its range and a plain scalar one of
// the wrong type.
type fieldKind int

const (
	fixedLen fieldKind = iota
	localList
	enumeration
	scalar
)

// stateFields lists every field each kernel's State declares: a node
// payload's keys for the kernel, and for BFS the machine record's
// ("machine.policy", "machine.hub_visited"). TestHostileStateRefused
// fails when a payload carries a key this table lacks.
var stateFields = map[string]map[string]fieldKind{
	"bfs": {
		"parent": fixedLen, "curr": fixedLen, "visited": fixedLen, "visited_deg": scalar,
		"machine.policy": enumeration, "machine.hub_visited": fixedLen,
	},
	"sssp": {"value": fixedLen, "active": fixedLen, "pending": scalar},
	"wcc":  {"value": fixedLen, "active": fixedLen, "pending": scalar},
	"delta-sssp": {
		"dist": fixedLen, "cur_bucket": scalar, "phase": enumeration, "done": scalar,
		"light_req": localList, "heavy_set": localList, "relaxed": scalar,
	},
	"pagerank": {"iter": scalar, "rank_bits": fixedLen, "acc": fixedLen},
	"kcore":    {"alive": fixedLen, "effdeg": fixedLen, "removal": localList},
	"betweenness": {
		"src_idx": enumeration, "dist": fixedLen, "sigma_bits": fixedLen, "delta_fix": fixedLen,
		"frontier": fixedLen, "count": scalar, "depth": scalar, "max_depth": scalar,
		"backward": scalar, "bc_bits": fixedLen, "done": scalar,
	},
}

// breakField returns the hostile values of one field given its healthy
// encoding: what each mutation names, and the raw value (nil: drop the
// field).
func breakField(t *testing.T, kind fieldKind, healthy json.RawMessage, n int64) map[string]json.RawMessage {
	t.Helper()
	out := map[string]json.RawMessage{"missing": nil}
	switch kind {
	case fixedLen:
		var list []json.RawMessage
		if err := json.Unmarshal(healthy, &list); err != nil || len(list) == 0 {
			t.Fatalf("fixed-length field %s is not a non-empty list", healthy)
		}
		short, err := json.Marshal(list[:len(list)-1])
		if err != nil {
			t.Fatal(err)
		}
		out["shortened"] = short
	case localList:
		var list []int64
		if err := json.Unmarshal(healthy, &list); err != nil {
			t.Fatal(err)
		}
		past, err := json.Marshal(append(list, n))
		if err != nil {
			t.Fatal(err)
		}
		out["local past the graph"] = past
	case enumeration:
		out["out of range"] = json.RawMessage("5")
	case scalar:
		out["wrong type"] = json.RawMessage(`"x"`)
	}
	return out
}

// TestHostileStateRefused breaks every field every kernel's State declares,
// in node 0's payload or, for BFS's machine-wide fields, the machine
// record: each hostile checkpoint must be refused with a *ckpt.StateError
// naming the field, before anything is announced, and never panic; the
// healthy original must still resume afterwards. BFS runs hybrid with hub
// prefetch, so the machine record carries the hub-visited bitmap.
func TestHostileStateRefused(t *testing.T) {
	g := kron(t, 8, 21)
	wg := testutil.Weighted(t, g, 9)
	root := testutil.FirstConnected(t, g)
	args := ckptArgs(root)
	cfg := ckptMachine(core.TransportRelay)
	cfg.DirectionOptimized, cfg.HubPrefetch = true, true
	for _, k := range Kernels {
		fields, ok := stateFields[k.Name]
		if !ok {
			t.Fatalf("stateFields has no entry for kernel %s", k.Name)
		}
		healthy := healthyCheckpoint(t, cfg, wg, root, k.Name, args[k.Name])
		var seen []string
		editState(t, healthy.Nodes[0].Data, func(payload map[string]json.RawMessage) {
			for key := range payload {
				seen = append(seen, key)
			}
		})
		if k.Name == core.KernelBFS {
			seen = append(seen, "machine.policy", "machine.hub_visited")
		}
		for _, key := range seen {
			if _, ok := fields[key]; !ok {
				t.Fatalf("%s: payload field %q is not in stateFields", k.Name, key)
			}
		}
		if len(seen) != len(fields) {
			t.Fatalf("%s: payload has fields %v, stateFields lists %d", k.Name, seen, len(fields))
		}
		for field, kind := range fields {
			machineKey, onMachine := strings.CutPrefix(field, "machine.")
			var value json.RawMessage
			if onMachine {
				machine := map[string]any{"policy": healthy.Machine.Policy, "hub_visited": healthy.Machine.HubVisited}
				var err error
				if value, err = json.Marshal(machine[machineKey]); err != nil {
					t.Fatal(err)
				}
			} else {
				editState(t, healthy.Nodes[0].Data, func(payload map[string]json.RawMessage) { value = payload[field] })
			}
			for what, raw := range breakField(t, kind, value, g.N) {
				t.Run(k.Name+"/"+field+"/"+what, func(t *testing.T) {
					c := *healthy
					c.Nodes = slices.Clone(healthy.Nodes)
					want := field
					switch {
					case onMachine:
						if err := breakMachineField(&c.Machine, machineKey, raw); err != nil {
							t.Fatal(err)
						}
						want = machineKey
					default:
						c.Nodes[0].Data = editState(t, c.Nodes[0].Data, func(payload map[string]json.RawMessage) {
							if raw == nil {
								delete(payload, field)
							} else {
								payload[field] = raw
							}
						})
						if k.Name != core.KernelBFS {
							want = "algo." + field
						}
					}
					o, events := quietObserver()
					rcfg := cfg
					rcfg.Obs, rcfg.CheckpointEvery = o, 1
					_, err := resume(rcfg, wg, &c)
					checkNamesField(t, err, want)
					checkSilent(t, o, events)
				})
			}
		}
		if _, err := resume(cfg, wg, healthy); err != nil {
			t.Fatalf("%s: healthy checkpoint refused: %v", k.Name, err)
		}
	}
}

// breakMachineField sets one of BFS's machine-record fields to raw, or
// drops it (nil raw): a dropped policy reads back as null, a dropped
// bitmap as empty.
func breakMachineField(ms *ckpt.MachineState, key string, raw json.RawMessage) error {
	switch key {
	case "policy":
		if raw == nil {
			ms.Policy = -1 // the record's int cannot be absent; -1 is out of range
			return nil
		}
		return json.Unmarshal(raw, &ms.Policy)
	default:
		ms.HubVisited = nil
		if raw == nil {
			return nil
		}
		return json.Unmarshal(raw, &ms.HubVisited)
	}
}

// TestResumeProbesRefused replays three hostile resumes that builds before
// the state codec took: a BFS checkpoint at a level-2 boundary whose
// frontier words are emptied (it resumed and built a short tree), a
// direction policy past the two directions (it indexed the level channels
// out of range) and a K-core removal past the partition (it indexed the
// survival flags out of range). Each must be refused with an error naming
// the field, before anything is announced.
func TestResumeProbesRefused(t *testing.T) {
	g := kron(t, 9, 21)
	wg := &graph.WeightedCSR{CSR: g}
	root := testutil.FirstConnected(t, g)
	cfg := ckptMachine(core.TransportRelay)
	cfg.DirectionOptimized, cfg.HubPrefetch = true, true

	plan, err := chaos.ParsePlan("kill@0:l2:relay-end/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	kcfg := cfg
	kcfg.Chaos, kcfg.CheckpointEvery = &plan, 1
	bfs, err := KernelByName(core.KernelBFS)
	if err != nil {
		t.Fatal(err)
	}
	_, err = bfs.Run(kcfg, wg, root, "", nil)
	var ae *core.AbortError
	if !errors.As(err, &ae) || ae.Checkpoint == nil || ae.Checkpoint.Level != 2 {
		t.Fatalf("want an abort carrying the level-2 boundary, got %v", err)
	}
	kcore := healthyCheckpoint(t, cfg, wg, root, "kcore", "k=4")

	for _, row := range []struct {
		name, field string
		healthy     *ckpt.Checkpoint
		edit        func(c *ckpt.Checkpoint)
	}{
		{"bfs frontier words emptied", "curr", ae.Checkpoint, func(c *ckpt.Checkpoint) {
			for i := range c.Nodes {
				c.Nodes[i].Data = editState(t, c.Nodes[i].Data, func(fields map[string]json.RawMessage) {
					fields["curr"] = json.RawMessage("[]")
				})
			}
		}},
		{"bfs policy 5", "policy", ae.Checkpoint, func(c *ckpt.Checkpoint) { c.Machine.Policy = 5 }},
		{"kcore removal past the partition", "algo.removal", kcore, func(c *ckpt.Checkpoint) {
			c.Nodes[0].Data = editState(t, c.Nodes[0].Data, func(fields map[string]json.RawMessage) {
				fields["removal"] = json.RawMessage(fmt.Sprintf("[%d]", g.N))
			})
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := *row.healthy
			c.Nodes = slices.Clone(row.healthy.Nodes)
			row.edit(&c)
			o, events := quietObserver()
			rcfg := cfg
			rcfg.Obs, rcfg.CheckpointEvery = o, 1
			_, err := resume(rcfg, wg, &c)
			checkNamesField(t, err, row.field)
			checkSilent(t, o, events)
			if _, err := resume(cfg, wg, row.healthy); err != nil {
				t.Fatalf("healthy checkpoint refused: %v", err)
			}
		})
	}
}
