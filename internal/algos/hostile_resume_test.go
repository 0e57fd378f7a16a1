package algos

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/obs"
)

// hostileCheckpoints returns copies of a healthy checkpoint: one from a
// foreign machine, the rest made internally inconsistent in a way a
// fingerprint and a node count cannot see. The healthy checkpoint must
// record at least two completed levels.
func hostileCheckpoints(c *ckpt.Checkpoint) map[string]*ckpt.Checkpoint {
	mutate := func(f func(h *ckpt.Checkpoint)) *ckpt.Checkpoint {
		h := *c
		h.Nodes = append([]ckpt.NodeState(nil), c.Nodes...)
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
	}
}

// quietObserver is a fresh observer with every run-announcing sink
// attached, and a subscription that sees whatever gets published.
func quietObserver() (*obs.Observer, <-chan obs.LiveEvent) {
	o := obs.New()
	o.Flight = obs.NewFlightRecorder(0)
	o.Spans = obs.NewSpanRecorder()
	o.Progress = obs.NewProgressBroker()
	events, _ := o.Progress.Subscribe(64)
	return o, events
}

// checkSilent fails unless the observer saw nothing at all: a rejected
// resume must publish no run-start (there would be no run-done to pair it
// with), open no flight run and no span run.
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
	if n := len(o.Spans.Runs()); n != 0 {
		t.Errorf("rejected resume opened %d span runs", n)
	}
}

// TestHostileCheckpointRejected feeds internally inconsistent checkpoints
// through both engines' resume entry points: each must be refused with an
// error before anything is announced, and the healthy original must still
// resume.
func TestHostileCheckpointRejected(t *testing.T) {
	g := kron(t, 9, 21)
	cfg := ckptMachine(core.TransportRelay)
	cfg.CheckpointEvery = 1

	engines := []struct {
		name   string
		take   func() (*ckpt.Checkpoint, error)
		resume func(cfg core.Config, c *ckpt.Checkpoint) error
	}{
		{
			name: "bfs",
			take: func() (*ckpt.Checkpoint, error) {
				r, err := core.NewRunner(cfg, g)
				if err != nil {
					return nil, err
				}
				_, err = r.Run(firstConnected(t, g))
				return r.LastCheckpoint(), err
			},
			resume: func(cfg core.Config, c *ckpt.Checkpoint) error {
				r, err := core.NewRunner(cfg, g)
				if err != nil {
					return err
				}
				_, err = r.Resume(c)
				return err
			},
		},
		{
			name: "wcc",
			take: func() (*ckpt.Checkpoint, error) {
				kcfg := cfg
				kcfg.CheckpointPath = filepath.Join(t.TempDir(), "wcc.ckpt.json")
				if _, err := WCC(kcfg, g); err != nil {
					return nil, err
				}
				return ckpt.ReadFile(kcfg.CheckpointPath)
			},
			resume: func(cfg core.Config, c *ckpt.Checkpoint) error {
				_, err := ResumeWCC(cfg, g, c) // RunOptions.Resume
				return err
			},
		},
	}
	for _, e := range engines {
		healthy, err := e.take()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if healthy == nil || len(healthy.Machine.Levels) < 2 {
			t.Fatalf("%s: no usable checkpoint", e.name)
		}
		for what, hostile := range hostileCheckpoints(healthy) {
			t.Run(e.name+"/"+what, func(t *testing.T) {
				o, events := quietObserver()
				rcfg := cfg
				rcfg.Obs = o
				if err := e.resume(rcfg, hostile); err == nil {
					t.Fatal("hostile checkpoint resumed")
				}
				checkSilent(t, o, events)
			})
		}
		if err := e.resume(cfg, healthy); err != nil {
			t.Fatalf("%s: healthy checkpoint refused: %v", e.name, err)
		}
	}
}

// TestDeltaResumeRejectsForeignLocal: a delta-stepping checkpoint whose
// request set names a local the node does not own is refused with an
// error before the run starts, not indexed out of range mid-run.
func TestDeltaResumeRejectsForeignLocal(t *testing.T) {
	g := kron(t, 8, 21)
	wg := weighted(t, g, 9)
	root := firstConnected(t, g)
	cfg := ckptMachine(core.TransportDirect)
	cfg.CheckpointEvery = 1
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "delta.ckpt.json")
	if _, err := DeltaSSSP(cfg, wg, root, 16); err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var data driverNodeData
	var state deltaCkpt
	if err := json.Unmarshal(c.Nodes[0].Data, &data); err != nil {
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
	if _, err := ResumeDeltaSSSP(ckptMachine(core.TransportDirect), wg, root, 16, c); err == nil {
		t.Fatal("request for a local past the partition accepted")
	}
}
