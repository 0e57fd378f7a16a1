// The resume-parity sweep: for every kernel of the table (algos.Kernels),
// transport and completed level, kill a node mid-run, pick the abort's
// auto-checkpoint back up through the table, as the CLIs do, and demand
// that the resumed run finishes bitwise identical to the
// fault-free baseline — parent trees, labels, float ranks (DeepEqual
// compares the IEEE-754 values exactly), per-level statistics and summed
// modelled traffic alike. The kill coordinates are not guessed: the
// baseline's flight dump records every delivery with its chaos
// coordinates (node, level, wire, channel, op), so each sweep leg strikes
// a delivery that provably exists at that level. Kill and resume legs
// alternate host worker widths {1,4} — a checkpoint written at one width
// must resume at another.
//
// `make race` runs this sweep under the race detector.
package chaos_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"swbfs/internal/algos"
	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/flight"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

func resumeGraph(t testing.TB) *graph.WeightedCSR {
	t.Helper()
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 9, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return testutil.Weighted(t, g, 7)
}

// resumeArgs are the arguments the sweep runs each kernel of the table
// with.
func resumeArgs(root graph.Vertex) map[string]string {
	return map[string]string{
		"bfs":         "",
		"sssp":        "",
		"delta-sssp":  "delta=16",
		"wcc":         "",
		"pagerank":    "iterations=3 damping=0.85",
		"kcore":       "k=4",
		"betweenness": fmt.Sprintf("sources=[%d]", root),
	}
}

// killSpecsFromDump extracts, per level, the canonically first delivery
// of the baseline run — the coordinate a kill is guaranteed to strike.
func killSpecsFromDump(t *testing.T, d *obs.FlightDump) map[int]chaos.Fault {
	t.Helper()
	if d.Dropped > 0 {
		t.Fatalf("baseline flight dump dropped %d events; raise the recorder capacity", d.Dropped)
	}
	firsts := make(map[int]chaos.Fault)
	lastRun := len(d.Runs) - 1
	for _, ev := range d.Events {
		if ev.Run != lastRun || ev.Kind != obs.FlightSend || ev.Level < 0 {
			continue
		}
		if _, ok := firsts[ev.Level]; ok {
			continue
		}
		spec := fmt.Sprintf("kill@%d:l%d:%s/%s:%d", ev.Node, ev.Level, ev.Wire, ev.Channel, ev.Op)
		f, err := chaos.ParseFault(spec)
		if err != nil {
			t.Fatalf("delivery event does not form a fault spec %q: %v", spec, err)
		}
		firsts[ev.Level] = f
	}
	return firsts
}

// TestChaosResumeSweep is the kill-everywhere sweep: kernels × transports
// × every completed level with traffic × alternating worker widths.
func TestChaosResumeSweep(t *testing.T) {
	wg := resumeGraph(t)
	root := testutil.FirstConnected(t, wg.CSR)
	args := resumeArgs(root)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		for _, k := range algos.Kernels {
			t.Run(k.Name+"/"+transport.String(), func(t *testing.T) {
				kargs, ok := args[k.Name]
				if !ok {
					t.Fatalf("no arguments for kernel %s", k.Name)
				}
				// Fault-free baseline, with a flight recorder attached so the
				// dump yields one kill coordinate per level. The observer is
				// host-side: it cannot change the modelled result.
				bcfg := harnessConfig(transport)
				bcfg.Obs = obs.New()
				bcfg.Obs.Flight = obs.NewFlightRecorder(1 << 16)
				base, err := k.Run(bcfg, wg, root, kargs, nil)
				if err != nil {
					t.Fatalf("baseline: %v", err)
				}
				kills := killSpecsFromDump(t, bcfg.Obs.Flight.Dump())
				if len(kills) < 2 {
					t.Fatalf("baseline produced deliveries in only %d level(s); nothing to sweep", len(kills))
				}

				maxLevel := 0
				for l := range kills {
					if l > maxLevel {
						maxLevel = l
					}
				}
				swept := 0
				for l := 1; l <= maxLevel; l++ {
					f, ok := kills[l]
					if !ok {
						continue // no delivery at this level — nothing to kill
					}
					swept++
					// Alternate widths: checkpoints written at one host width
					// must resume bit-identical at another.
					killWorkers, resumeWorkers := 1, 4
					if l%2 == 1 {
						killWorkers, resumeWorkers = 4, 1
					}

					plan := chaos.Plan{Faults: []chaos.Fault{f}}
					kcfg := harnessConfig(transport)
					kcfg.Workers = killWorkers
					kcfg.Chaos = &plan
					kcfg.CheckpointEvery = 1

					leak := testutil.CheckGoroutines(t)
					_, err := k.Run(kcfg, wg, root, kargs, nil)
					leak()
					if t.Failed() {
						t.Fatalf("level %d (%s): goroutine leak after kill", l, f)
					}
					if err == nil {
						t.Fatalf("level %d (%s): kill did not abort the run", l, f)
					}
					var ae *core.AbortError
					if !errors.As(err, &ae) {
						t.Fatalf("level %d (%s): abort is not an AbortError: %v", l, f, err)
					}
					c := ae.Checkpoint
					if c == nil {
						t.Fatalf("level %d (%s): abort carries no auto-checkpoint", l, f)
					}
					if c.Level != l {
						t.Fatalf("level %d (%s): newest checkpoint boundary is %d, want %d",
							l, f, c.Level, l)
					}
					if len(ae.Injections) != 1 || ae.Injections[0] != f {
						t.Fatalf("level %d: injection log %v, want exactly the kill %s", l, ae.Injections, f)
					}

					// Resume on a fresh ensemble: the machine configuration
					// comes from the checkpoint, the fired kill is stripped
					// from the plan (leaving it empty), only host width
					// differs.
					rcfg, err := core.ConfigFromCheckpoint(c.Config)
					if err != nil {
						t.Fatalf("level %d: %v", l, err)
					}
					rcfg.Workers = resumeWorkers
					rcfg.LevelTimeout = kcfg.LevelTimeout
					if stripped := plan.Without(ae.Injections); len(stripped.Faults) > 0 {
						t.Fatalf("level %d: stripping the fired kill left %v", l, stripped.Faults)
					}
					resumed, err := k.Run(rcfg, wg, graph.Vertex(c.Root), c.Args, c)
					if err != nil {
						t.Fatalf("level %d (%s): resume failed: %v", l, f, err)
					}
					if !reflect.DeepEqual(base, resumed) {
						t.Fatalf("level %d (%s): resumed result differs from fault-free baseline:\n  base:    %+v\n  resumed: %+v",
							l, f, base, resumed)
					}
				}
				if swept == 0 {
					t.Fatal("no level was swept")
				}
				t.Logf("%s/%s: killed and resumed at %d of %d level boundaries",
					k.Name, transport, swept, maxLevel)
			})
		}
	}
}

// overflowCapacity is a flight-ring capacity that every node's ring
// outgrows before level kill starts: half the smallest per-node count of
// delivery events in the levels before it in the last run of d, and at
// least 1.
func overflowCapacity(d *obs.FlightDump, kill int) int {
	perNode := map[int]int{}
	for _, ev := range d.Events {
		delivery := ev.Kind == obs.FlightSend || ev.Kind == obs.FlightRecv || ev.Kind == obs.FlightDupDrop
		if delivery && ev.Run == len(d.Runs)-1 && ev.Level >= 0 && ev.Level < kill {
			perNode[ev.Node]++
		}
	}
	least := 0
	for _, n := range perNode {
		if least == 0 || n < least {
			least = n
		}
	}
	return max(least/2, 1)
}

// TestChaosCheckpointCrashConsistency is the crash-consistency case: the
// killed run's flight recorder is so small that its delivery rings
// overflow, yet the abort-written checkpoint file is complete and
// loadable, byte-identical to the in-memory checkpoint the AbortError
// carries; a second kill striking the resumed run still reconciles its
// flight dump 1:1 against the injection log; and resuming once more
// finishes bit-identical to the fault-free baseline.
func TestChaosCheckpointCrashConsistency(t *testing.T) {
	g := resumeGraph(t).CSR
	root := testutil.FirstConnected(t, g)

	// Baseline with a roomy recorder: learn one kill coordinate per level.
	bcfg := harnessConfig(core.TransportRelay)
	bcfg.Obs = obs.New()
	bcfg.Obs.Flight = obs.NewFlightRecorder(1 << 16)
	br, err := core.NewRunner(bcfg, g)
	if err != nil {
		t.Fatal(err)
	}
	base, err := br.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	baseDump := bcfg.Obs.Flight.Dump()
	kills := killSpecsFromDump(t, baseDump)
	first, last := -1, -1
	for l := range kills {
		if l >= 1 && (first == -1 || l < first) {
			first = l
		}
		if l > last {
			last = l
		}
	}
	if first == -1 || last <= first {
		t.Fatalf("need two killable levels, got first=%d last=%d", first, last)
	}

	// Kill at the first boundary, with flight rings half the size of the
	// quietest node's traffic before it: overflow is the point — the
	// checkpoint must stay complete regardless.
	dir := t.TempDir()
	kcfg := harnessConfig(core.TransportRelay)
	kcfg.Obs = obs.New()
	kcfg.Obs.Flight = obs.NewFlightRecorder(overflowCapacity(baseDump, first))
	plan1 := chaos.Plan{Faults: []chaos.Fault{kills[first]}}
	kcfg.Chaos = &plan1
	kcfg.CheckpointEvery = 1
	kcfg.CheckpointPath = filepath.Join(dir, "crash.ckpt.json")
	kcfg.FlightDump = filepath.Join(dir, "crash.flight.json")
	kr, err := core.NewRunner(kcfg, g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = kr.Run(root)
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("kill did not abort: %v", err)
	}
	if ae.FlightDump == nil || ae.FlightDump.Dropped == 0 {
		t.Fatal("delivery rings did not overflow")
	}
	if ae.CheckpointPath != kcfg.CheckpointPath {
		t.Fatalf("abort checkpoint at %q, want %q", ae.CheckpointPath, kcfg.CheckpointPath)
	}
	fromFile, err := ckpt.ReadFile(ae.CheckpointPath)
	if err != nil {
		t.Fatalf("abort-written checkpoint unreadable despite ring overflow: %v", err)
	}
	fileBytes, err := ckpt.Encode(fromFile)
	if err != nil {
		t.Fatal(err)
	}
	memBytes, err := ckpt.Encode(ae.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileBytes, memBytes) {
		t.Fatal("abort-written checkpoint file differs from the AbortError's in-memory checkpoint")
	}
	if err := flight.Reconcile(ae.FlightDump, ae.Injections); err != nil {
		t.Fatalf("first abort does not reconcile: %v", err)
	}

	// Resume from the file with a second kill scheduled at the last
	// boundary: the restored rings plus the fresh injection must still
	// reconcile 1:1.
	rcfg, err := core.ConfigFromCheckpoint(fromFile.Config)
	if err != nil {
		t.Fatal(err)
	}
	rcfg.Workers = 2
	rcfg.LevelTimeout = kcfg.LevelTimeout
	plan2 := chaos.Plan{Faults: []chaos.Fault{kills[last]}}
	rcfg.Chaos = &plan2
	rcfg.CheckpointEvery = 1
	rcfg.FlightDump = filepath.Join(dir, "crash2.flight.json")
	rr, err := core.NewRunner(rcfg, g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rr.Resume(fromFile)
	var ae2 *core.AbortError
	if !errors.As(err, &ae2) {
		t.Fatalf("second kill did not abort the resumed run: %v", err)
	}
	if len(ae2.Injections) != 1 || ae2.Injections[0] != kills[last] {
		t.Fatalf("resumed run's injections %v, want exactly %s", ae2.Injections, kills[last])
	}
	if err := flight.Reconcile(ae2.FlightDump, ae2.Injections); err != nil {
		t.Fatalf("post-resume abort does not reconcile: %v", err)
	}
	if ae2.Checkpoint == nil || ae2.Checkpoint.Level != last {
		t.Fatalf("post-resume abort checkpoint = %+v, want boundary %d", ae2.Checkpoint, last)
	}

	// Third leg: resume the resumed run; the final result must still be
	// bitwise identical to the never-interrupted baseline.
	fcfg, err := core.ConfigFromCheckpoint(ae2.Checkpoint.Config)
	if err != nil {
		t.Fatal(err)
	}
	fcfg.Workers = 1
	fcfg.LevelTimeout = kcfg.LevelTimeout
	fr, err := core.NewRunner(fcfg, g)
	if err != nil {
		t.Fatal(err)
	}
	final, err := fr.Resume(ae2.Checkpoint)
	if err != nil {
		t.Fatalf("final resume failed: %v", err)
	}
	if !reflect.DeepEqual(base, final) {
		t.Fatal("twice-killed, twice-resumed run differs from the fault-free baseline")
	}
}

// TestChaosResumeNoBoundaryBeforeLevelOne pins the edge case: a kill
// during level 0 aborts before any boundary exists, so the abort carries
// no checkpoint — there is nothing to resume, by design.
func TestChaosResumeNoBoundaryBeforeLevelOne(t *testing.T) {
	g := resumeGraph(t).CSR
	root := testutil.FirstConnected(t, g)
	owner := int(root) % harnessNodes // round-robin partition
	plan, err := chaos.ParsePlan(fmt.Sprintf("kill@%d:l0:data/forward:0", owner))
	if err != nil {
		t.Fatal(err)
	}
	cfg := harnessConfig(core.TransportDirect)
	cfg.Chaos = &plan
	cfg.CheckpointEvery = 1

	r, err := core.NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(root)
	if err == nil {
		t.Fatal("level-0 kill did not abort")
	}
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("abort is not an AbortError: %v", err)
	}
	if ae.Checkpoint != nil {
		t.Fatalf("abort during level 0 carries checkpoint boundary %d, want none", ae.Checkpoint.Level)
	}
}
