package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

func ckptConfig(transport Transport, workers int) Config {
	return Config{
		Nodes:              4,
		SuperNodeSize:      2,
		Transport:          transport,
		Engine:             perf.EngineMPE,
		DirectionOptimized: true,
		HubPrefetch:        true,
		SmallMessageMPE:    true,
		Workers:            workers,
	}
}

// TestCheckpointParityAndResume proves the three core guarantees on both
// transports: (1) checkpointing on changes nothing — the Result is
// DeepEqual to a run with checkpointing off; (2) a run resumed from a
// mid-run checkpoint file finishes with a bitwise-identical Result; (3)
// the checkpoint file round-trips through the codec.
func TestCheckpointParityAndResume(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	g := kron(t, 9, 42)
	const root = graph.Vertex(5) // a well-connected root: the run spans several levels
	for _, transport := range []Transport{TransportDirect, TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			baseRunner, err := NewRunner(ckptConfig(transport, 2), g)
			if err != nil {
				t.Fatal(err)
			}
			base, err := baseRunner.Run(root)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "bfs.ckpt.json")
			cfg := ckptConfig(transport, 2)
			cfg.CheckpointEvery = 2
			cfg.CheckpointPath = path
			r, err := NewRunner(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, res) {
				t.Fatalf("checkpointing on changed the result:\n  off: %+v\n  on:  %+v", base, res)
			}
			if r.m.written == 0 {
				t.Fatal("no checkpoint file written")
			}

			// The file holds a mid-run boundary (the newest multiple of
			// CheckpointEvery); resume from it on a fresh runner, at a
			// different worker width, and demand a bitwise-identical Result.
			c, err := ckpt.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if c.Level <= 0 || c.Level >= len(base.Levels)+1 {
				t.Fatalf("checkpoint level %d outside the run's %d levels", c.Level, len(base.Levels))
			}
			rcfg, err := ConfigFromCheckpoint(c.Config)
			if err != nil {
				t.Fatal(err)
			}
			rcfg.Workers = 4
			rr, err := NewRunner(rcfg, g)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := rr.Resume(c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, resumed) {
				t.Fatalf("resumed result differs from uninterrupted run:\n  base:    %+v\n  resumed: %+v", base, resumed)
			}
			checkBFSTree(t, g, root, resumed.Parent)
		})
	}
}

// TestCheckpointBytesDeterministic demands byte-identical checkpoint files
// for repeated runs of the same seed and configuration, and across worker
// widths — the file-level determinism contract.
func TestCheckpointBytesDeterministic(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	g := kron(t, 9, 7)
	files := make([][]byte, 0, 3)
	for _, workers := range []int{1, 1, 4} {
		path := filepath.Join(t.TempDir(), "ck.json")
		cfg := ckptConfig(TransportRelay, workers)
		cfg.CheckpointEvery = 1
		cfg.CheckpointPath = path
		r, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(5); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("same config, same seed: checkpoint files differ between runs")
	}
	if !bytes.Equal(files[0], files[2]) {
		t.Fatal("checkpoint files differ between worker widths 1 and 4")
	}
}

// TestCheckpointJSONSource exercises the obs.CheckpointSource hook the
// /debug/checkpoint endpoint serves.
func TestCheckpointJSONSource(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	g := kron(t, 8, 11)
	cfg := ckptConfig(TransportDirect, 1)
	cfg.CheckpointEvery = 1
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.CheckpointJSON(); ok {
		t.Fatal("CheckpointJSON reported data before any boundary")
	}
	if _, err := r.Run(1); err != nil {
		t.Fatal(err)
	}
	data, ok := r.CheckpointJSON()
	if !ok {
		t.Fatal("CheckpointJSON empty after a checkpointed run")
	}
	c, err := ckpt.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if c.Kernel != "bfs" || c.Root != 1 {
		t.Fatalf("served checkpoint identifies %s/%d, want bfs/1", c.Kernel, c.Root)
	}
}

// TestResumeRejects covers the refuse-to-load paths: wrong kernel, wrong
// fingerprint, wrong node count.
func TestResumeRejects(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	g := kron(t, 8, 13)
	cfg := ckptConfig(TransportDirect, 1)
	cfg.CheckpointEvery = 1
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(2); err != nil {
		t.Fatal(err)
	}
	c := r.LastCheckpoint()
	if c == nil {
		t.Fatal("no checkpoint after run")
	}

	if _, err := r.Resume(nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	bad := *c
	bad.Kernel = "sssp"
	if _, err := r.Resume(&bad); err == nil {
		t.Fatal("wrong-kernel checkpoint accepted")
	}
	other, err := NewRunner(ckptConfig(TransportRelay, 1), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Resume(c); err == nil {
		t.Fatal("wrong-transport (fingerprint) checkpoint accepted")
	}
	bad = *c
	bad.Nodes = bad.Nodes[:2]
	if _, err := r.Resume(&bad); err == nil {
		t.Fatal("truncated node list accepted")
	}

	// The fingerprint names the graph only by its vertex and edge counts;
	// the digest tells a relabelled graph of the same counts apart, and a
	// checkpoint that pins no graph is refused outright.
	var mismatch *GraphDigestError
	relabelled, err := NewRunner(cfg, testutil.Relabelled(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := relabelled.Resume(c); !errors.As(err, &mismatch) {
		t.Fatalf("resume onto a relabelled graph: %v, want a *GraphDigestError", err)
	}
	bad = *c
	bad.Config.GraphDigest = ""
	if _, err := r.Resume(&bad); !errors.As(err, &mismatch) {
		t.Fatalf("resume from a checkpoint without a graph digest: %v, want a *GraphDigestError", err)
	}
}

// TestResumeEveryLevelWithTopDownHubSubset resumes a hybrid run whose
// top-down hub budget is a strict subset of the bottom-up one from every
// level's checkpoint, on both transports. The forward shortcut tests only
// the top-down-budget hubs already visited, so a resumed run must rebuild
// exactly that set from the checkpoint's hub-visited bitmap: each resumed
// Result must equal the uninterrupted one. From root 12, with Alpha 0.2
// keeping level 2 top-down, the frontiers of levels 2 and 4 reach hubs
// visited before them, so a resume there without the rebuild sends
// messages the uninterrupted run elides.
func TestResumeEveryLevelWithTopDownHubSubset(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	g := kron(t, 12, 5)
	const root = graph.Vertex(12)
	for _, transport := range []Transport{TransportDirect, TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := DefaultConfig(8)
			cfg.SuperNodeSize = 4
			cfg.Transport = transport
			cfg.Alpha = 0.2
			cfg.HubsTopDown, cfg.HubsBottomUp = 128, 256
			r, err := NewRunner(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			if td, bu := r.hubs.topDown, r.hubs.set.Len(); td >= bu {
				t.Fatalf("top-down budget %d is not below the bottom-up %d", td, bu)
			}
			base, err := r.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if base.BottomUpLevels == 0 || base.BottomUpLevels == len(base.Levels) {
				t.Fatalf("%d of %d levels bottom-up: not a hybrid run", base.BottomUpLevels, len(base.Levels))
			}
			wire := "end"
			if transport == TransportRelay {
				wire = "relay-end"
			}
			// A kill at level L aborts with the boundary checkpoint taken
			// after level L-1; the last level with traffic bounds L.
			for level := 1; level < len(base.Levels); level++ {
				plan, err := chaos.ParsePlan(fmt.Sprintf("kill@0:l%d:%s/forward:0", level, wire))
				if err != nil {
					t.Fatal(err)
				}
				kcfg := cfg
				kcfg.Chaos = &plan
				kcfg.CheckpointEvery = 1
				kr, err := NewRunner(kcfg, g)
				if err != nil {
					t.Fatal(err)
				}
				_, err = kr.Run(root)
				var ae *AbortError
				if !errors.As(err, &ae) || ae.Checkpoint == nil || ae.Checkpoint.Level != level {
					t.Fatalf("kill at level %d: want an abort with that level's checkpoint, got %v", level, err)
				}
				rr, err := NewRunner(cfg, g)
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := rr.Resume(ae.Checkpoint)
				if err != nil {
					t.Fatalf("resume at level %d: %v", level, err)
				}
				if !reflect.DeepEqual(base, resumed) {
					t.Fatalf("resumed at level %d, the result differs from the uninterrupted run:\n  base levels:    %+v\n  resumed levels: %+v", level, base.Levels, resumed.Levels)
				}
			}
		})
	}
}

// TestHostAndFingerprintCoverConfig walks every Config field: each must be
// either fingerprinted by machineConfig (a resume restores it through
// ConfigFromCheckpoint) or stamped by Host.Apply (a resume takes it from
// the command line). A field in neither would be silently dropped by every
// resume.
func TestHostAndFingerprintCoverConfig(t *testing.T) {
	g := kron(t, 4, 1)
	base := Config{Nodes: 4}
	fingerprint := func(c Config) string { return machineConfig(c, c.Partition.String(), g, "").Fingerprint() }
	baseFP := fingerprint(base)

	var h Host
	hv := reflect.ValueOf(&h).Elem()
	for i := range hv.NumField() {
		setNonZero(t, hv.Type().Field(i).Name, hv.Field(i))
	}
	stamped := reflect.ValueOf(h.Apply(base))

	ct := reflect.TypeOf(base)
	for i := range ct.NumField() {
		name := ct.Field(i).Name
		cfg := base
		setNonZero(t, name, reflect.ValueOf(&cfg).Elem().Field(i))
		inFingerprint := fingerprint(cfg) != baseFP
		byHost := !reflect.DeepEqual(stamped.Field(i).Interface(), reflect.ValueOf(base).Field(i).Interface())
		if !inFingerprint && !byHost {
			t.Errorf("Config.%s is neither fingerprinted by machineConfig nor stamped by Host.Apply: a resume drops it", name)
		}
	}
}

// setNonZero gives a Config or Host field a value that differs from its
// zero value and from every default withDefaults fills in.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Float64:
		v.SetFloat(3)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Struct:
		setNonZero(t, name, v.Field(0))
	case reflect.Interface:
		c := reflect.ValueOf(comm.AdaptiveCodec{})
		if !c.Type().Implements(v.Type()) {
			t.Fatalf("field %s: no sample value for interface %s", name, v.Type())
		}
		v.Set(c)
	default:
		t.Fatalf("field %s: no sample value for kind %s", name, v.Kind())
	}
}
