package core_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

// The machine seam in isolation: a toy level body with no graph kernel —
// every node passes a token to its right-hand neighbour once per level —
// run through nothing but core.Machine's exported surface. What these
// tests see (abort report, watchdog, checkpoint and resume) is therefore
// delivered by the lifecycle alone.

const ringLevels = 5

type ringState struct {
	Token int64 `json:"token"`
}

// ring is the toy body of one node. stall, when non-nil, runs once the
// level's statistics are summed, before its channels open (a slow node).
type ring struct {
	m      *core.Machine
	node   int
	state  *ringState
	stall  func(node, level int)
	active [1]int64
}

// ringBodies builds every node's ring body over state.
func ringBodies(m *core.Machine, state []ringState, stall func(node, level int)) func(int) core.Body {
	return func(node int) core.Body { return &ring{m: m, node: node, state: &state[node], stall: stall} }
}

func (r *ring) Stats(level int) []int64 {
	r.active[0] = 0
	if level < ringLevels {
		r.active[0] = 1
	}
	return r.active[:]
}

func (r *ring) Plan(level int, _ []int64) (core.Plan, error) {
	if r.stall != nil {
		r.stall(r.node, level)
	}
	return core.Plan{Label: "ring", Channels: []comm.Channel{comm.ChanForward}}, nil
}

func (r *ring) Work(level int, _ core.Plan) (ckpt.ModuleWork, error) {
	ep := r.m.Endpoint(r.node)
	err := ep.SendMany(comm.ChanForward, []comm.DstRun{{Dst: (r.node + 1) % r.m.Cfg().Nodes, N: 1}},
		[]comm.Pair{{graph.Vertex(r.state.Token), graph.Vertex(level)}})
	if err == nil {
		err = ep.CloseChannel(comm.ChanForward)
	}
	for err == nil {
		ev := ep.Recv()
		if ev.Type == comm.EvChannelClosed {
			break
		}
		if ev.Type == comm.EvData {
			r.state.Token = int64(ev.Batch.Pairs[0][0])
		}
		err = ev.Err
	}
	return ckpt.ModuleWork{Generated: 1}, err
}

func (r *ring) Close(s perf.LevelStats, row []ckpt.ModuleWork) (perf.LevelStats, string) {
	for _, w := range row {
		s.FrontierEdges += w.Generated
	}
	return s, "ring"
}

func (r *ring) State() ckpt.State { return ckpt.State{ckpt.Scalar("token", &r.state.Token)} }

// runRing opens a machine, seeds the tokens, drives the body (which, on a
// resume, loads the checkpoint's) and returns the ledger and the final
// tokens.
func runRing(t *testing.T, cfg core.Config, from *ckpt.Checkpoint, stall func(node, level int)) ([]perf.LevelStats, []ringState, error) {
	t.Helper()
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.OpenMachine(core.MachineSpec{
		Cfg: cfg, Graph: g, Kernel: "ring", Root: graph.NoVertex, Unit: "level",
		Partition: "none", Resume: from,
	})
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()
	state := make([]ringState, cfg.Nodes)
	for node := range state {
		state[node].Token = int64(node)
	}
	if err := m.Drive(ringBodies(m, state, stall)); err != nil {
		return nil, nil, err
	}
	return m.Levels(), state, nil
}

func ringConfig(transport core.Transport) core.Config {
	return core.Config{Nodes: 4, SuperNodeSize: 2, Transport: transport, Engine: perf.EngineMPE}
}

func TestMachineKillYieldsAbortReport(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	plan, err := chaos.ParsePlan("kill@2:l2:data/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ringConfig(core.TransportDirect)
	cfg.Chaos = &plan
	cfg.CheckpointEvery = 1
	_, _, err = runRing(t, cfg, nil, nil)
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("killed run returned %v, want *core.AbortError", err)
	}
	var killed *comm.ErrNodeKilled
	if !errors.As(err, &killed) {
		t.Errorf("abort cause %v does not unwrap to ErrNodeKilled", ae.Cause)
	}
	if len(ae.CompletedLevels) != 2 {
		t.Errorf("%d completed levels reported, want 2", len(ae.CompletedLevels))
	}
	if ae.FlightDump == nil || !ae.FlightDump.Aborted || len(ae.FlightDump.Events) == 0 {
		t.Errorf("no post-mortem flight dump on the abort: %+v", ae.FlightDump)
	}
	if len(ae.Injections) != 1 || ae.Injections[0].Kind != chaos.KindKill {
		t.Errorf("injection log %v, want the one kill", ae.Injections)
	}
	if ae.Checkpoint == nil || ae.Checkpoint.Level != 2 || ae.Checkpoint.Kernel != "ring" {
		t.Errorf("abort checkpoint %+v, want the level-2 boundary of kernel ring", ae.Checkpoint)
	}
}

func TestMachineWatchdogFiresOnStall(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	cfg := ringConfig(core.TransportRelay)
	cfg.LevelTimeout = 40 * time.Millisecond
	_, _, err := runRing(t, cfg, nil, func(node, level int) {
		if node == 1 && level == 1 {
			time.Sleep(400 * time.Millisecond)
		}
	})
	if !errors.Is(err, core.ErrLevelTimeout) {
		t.Fatalf("stalled run returned %v, want ErrLevelTimeout", err)
	}
	var ae *core.AbortError
	if !errors.As(err, &ae) || len(ae.CompletedLevels) != 1 {
		t.Fatalf("watchdog abort report %+v, want one completed level", ae)
	}
}

func TestMachineCheckpointResume(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		baseLevels, baseState, err := runRing(t, ringConfig(transport), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(baseLevels) != ringLevels {
			t.Fatalf("%s: %d levels recorded, want %d", transport, len(baseLevels), ringLevels)
		}
		for node, s := range baseState {
			// Each level moves every token one node to the right.
			if want := int64((node + 4*ringLevels - ringLevels) % 4); s.Token != want {
				t.Errorf("%s: node %d ends with token %d, want %d", transport, node, s.Token, want)
			}
		}
		// Die at level 3 with every boundary latched, then finish from the
		// abort checkpoint on a machine without the fault.
		plan, err := chaos.ParsePlan("kill@0:l3:end/forward:0")
		if transport == core.TransportRelay {
			plan, err = chaos.ParsePlan("kill@0:l3:relay-end/forward:0")
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg := ringConfig(transport)
		cfg.Chaos = &plan
		cfg.CheckpointEvery = 1
		_, _, err = runRing(t, cfg, nil, nil)
		var ae *core.AbortError
		if !errors.As(err, &ae) || ae.Checkpoint == nil || ae.Checkpoint.Level != 3 {
			t.Fatalf("%s: want an abort with the level-3 checkpoint, got %v", transport, err)
		}
		levels, state, err := runRing(t, ringConfig(transport), ae.Checkpoint, nil)
		if err != nil {
			t.Fatalf("%s: resume: %v", transport, err)
		}
		if !reflect.DeepEqual(levels, baseLevels) {
			t.Errorf("%s: resumed ledger differs from the uninterrupted run:\n  base:    %+v\n  resumed: %+v", transport, baseLevels, levels)
		}
		if !reflect.DeepEqual(state, baseState) {
			t.Errorf("%s: resumed tokens %v, uninterrupted %v", transport, state, baseState)
		}
	}
}

// TestMachineProtocolErrorAborts: a peer that breaks the transport protocol
// mid-run — here node 1 closes a channel the level never opened, so its End
// markers reach peers that are not expecting them — tears the run down with
// a clean AbortError whose cause is the receiver's *comm.ProtocolError, and
// the post-mortem dump shows the offending batch arriving. (The same four
// violations used to panic the receiving node's goroutine.)
func TestMachineProtocolErrorAborts(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		m, err := core.OpenMachine(core.MachineSpec{
			Cfg: ringConfig(transport), Graph: g, Kernel: "ring", Root: graph.NoVertex, Unit: "level", Partition: "none",
		})
		if err != nil {
			t.Fatal(err)
		}
		state := make([]ringState, m.Cfg().Nodes)
		err = m.Drive(ringBodies(m, state, func(node, level int) {
			if node == 1 && level == 2 {
				_ = m.Endpoint(1).CloseChannel(comm.ChanBackward) // the hostile act; its outcome is the peers' to report
			}
		}))
		m.Close()
		var ae *core.AbortError
		var pe *comm.ProtocolError
		if !errors.As(err, &ae) || !errors.As(err, &pe) {
			t.Fatalf("%s: hostile run returned %v, want an *AbortError caused by a *comm.ProtocolError", transport, err)
		}
		if pe.Src != 1 || pe.Reason == "" {
			t.Errorf("%s: ProtocolError %+v does not name node 1's batch", transport, pe)
		}
		arrived := false
		for _, ev := range ae.FlightDump.Events {
			if ev.Kind == "recv" && ev.Node == pe.Node && ev.Peer == 1 && ev.Channel == "backward" {
				arrived = true
			}
		}
		if !arrived {
			t.Errorf("%s: the post-mortem dump does not show node %d receiving the hostile batch", transport, pe.Node)
		}
	}
}

// TestMachineCollectiveMismatchAborts: a node that calls another collective
// than its peers — here node 1 calls a max-allreduce where they join the
// level's rendezvous — tears the run down with an AbortError whose cause
// is the network's *comm.ProtocolError naming both kinds, although every
// node itself only saw the abort.
func TestMachineCollectiveMismatchAborts(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.OpenMachine(core.MachineSpec{
		Cfg: ringConfig(core.TransportDirect), Graph: g, Kernel: "ring", Root: graph.NoVertex, Unit: "level", Partition: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	state := make([]ringState, m.Cfg().Nodes)
	err = m.Drive(ringBodies(m, state, func(node, level int) {
		if node == 1 && level == 2 {
			if got := m.Net.AllreduceMax(1); got != 0 {
				t.Errorf("mismatched max returned %d", got)
			}
		}
	}))
	var ae *core.AbortError
	var pe *comm.ProtocolError
	if !errors.As(err, &ae) || !errors.As(err, &pe) {
		t.Fatalf("mismatched run returned %v, want an *AbortError caused by a *comm.ProtocolError", err)
	}
	if msg := pe.Error(); !strings.Contains(msg, "max") || !strings.Contains(msg, "sync") {
		t.Errorf("%q does not name both collectives", msg)
	}
	if len(ae.CompletedLevels) != 2 {
		t.Errorf("%d levels completed before the mismatch, want 2", len(ae.CompletedLevels))
	}
}
