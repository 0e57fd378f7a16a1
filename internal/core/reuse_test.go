package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/comm"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

// observed is everything a run leaves behind for its caller.
type observed struct {
	Result *Result
	Trace  obs.RunTrace
	Flight []obs.FlightEvent // the run's events, run index and seq zeroed
}

// observeRun runs root on r (whose observer is o) and collects the run's
// Result, its RunTrace and the flight events it recorded.
func observeRun(t *testing.T, r *Runner, o *obs.Observer, root graph.Vertex) observed {
	t.Helper()
	res, err := r.Run(root)
	if err != nil {
		t.Fatalf("root %d: %v", root, err)
	}
	traces := o.Trace.Runs()
	d := r.Flight().Dump()
	if d.Dropped != 0 {
		t.Fatalf("flight rings wrapped (%d dropped): grow the test's recorder", d.Dropped)
	}
	out := observed{Result: res, Trace: traces[len(traces)-1]}
	for _, ev := range d.Events {
		if ev.Run == len(d.Runs)-1 {
			ev.Run, ev.Seq = 0, 0
			out.Flight = append(out.Flight, ev)
		}
	}
	return out
}

func reuseObserver() *obs.Observer {
	o := obs.New()
	o.Flight = obs.NewFlightRecorder(1 << 15)
	return o
}

// TestReuseRunsEqualFreshRunners: roots A, B, A on one Runner — the second
// and third on the first's recycled network, endpoints and node arrays —
// leave exactly what three fresh Runners leave: Result (parents, Levels,
// Time, MaxConnections), RunTrace and the run's flight events.
func TestReuseRunsEqualFreshRunners(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g := kron(t, 10, 42)
	roots := []graph.Vertex{pickBigComponentRoot(t, g), 17, pickBigComponentRoot(t, g)}
	for _, transport := range []Transport{TransportDirect, TransportRelay} {
		for _, workers := range []int{1, 2} {
			for _, adaptive := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/adaptive=%v", transport, workers, adaptive), func(t *testing.T) {
					cfg := ckptConfig(transport, workers)
					cfg.Nodes, cfg.SuperNodeSize, cfg.BatchBytes = 8, 4, 1<<10
					if adaptive {
						cfg.CodecBackward = comm.AdaptiveCodec{}
					}
					shared := reuseObserver()
					cfg.Obs = shared
					reused, err := NewRunner(cfg, g)
					if err != nil {
						t.Fatal(err)
					}
					var prev *comm.Network
					for i, root := range roots {
						got := observeRun(t, reused, shared, root)
						if i > 0 && reused.m.Net != prev {
							t.Fatalf("run %d did not recycle the previous run's network", i)
						}
						prev = reused.m.Net

						cfg.Obs = reuseObserver()
						fresh, err := NewRunner(cfg, g)
						if err != nil {
							t.Fatal(err)
						}
						want := observeRun(t, fresh, cfg.Obs, root)
						if !reflect.DeepEqual(got.Result, want.Result) {
							t.Errorf("run %d (root %d): Result differs from a fresh runner's", i, root)
						}
						if !reflect.DeepEqual(got.Trace, want.Trace) {
							t.Errorf("run %d (root %d): RunTrace differs from a fresh runner's:\n got %+v\nwant %+v", i, root, got.Trace, want.Trace)
						}
						if !reflect.DeepEqual(got.Flight, want.Flight) {
							t.Errorf("run %d (root %d): %d flight events differ from a fresh runner's %d", i, root, len(got.Flight), len(want.Flight))
						}
					}
				})
			}
		}
	}
}

// TestReuseNeverRecyclesAbortedMachine: a killed run's machine is not taken
// over — the next run builds its own network and endpoints — and that clean
// run equals a fresh Runner's; the run after it recycles again. A resumed
// run's machine is not recycled either.
func TestReuseNeverRecyclesAbortedMachine(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g := kron(t, 10, 42)
	root := pickBigComponentRoot(t, g)
	for _, transport := range []Transport{TransportDirect, TransportRelay} {
		plan, err := chaos.ParsePlan("kill@3:l2:end/forward:0,kill@3:l2:relay-end/forward:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := ckptConfig(transport, 2)
		cfg.Nodes, cfg.SuperNodeSize, cfg.CheckpointEvery = 8, 4, 1
		cfg.LevelTimeout = 20 * time.Second
		cfg.Chaos = &plan
		shared := reuseObserver()
		cfg.Obs = shared
		r, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Run(root)
		var ae *AbortError
		if !errors.As(err, &ae) || ae.Checkpoint == nil {
			t.Fatalf("%s: want an abort with a checkpoint, got %v", transport, err)
		}
		aborted := r.m
		abortedEp := aborted.Endpoint(0)

		r.cfg.Chaos = nil // host-side knob: the clean run on the same runner
		got := observeRun(t, r, shared, root)
		if r.m.Net == aborted.Net || r.m.Endpoint(0) == abortedEp {
			t.Fatalf("%s: the clean run took over the aborted machine's buffers", transport)
		}
		cfg.Chaos, cfg.Obs = nil, reuseObserver()
		fresh, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		want := observeRun(t, fresh, cfg.Obs, root)
		if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Trace, want.Trace) ||
			!reflect.DeepEqual(got.Flight, want.Flight) {
			t.Errorf("%s: the clean run after an abort differs from a fresh runner's", transport)
		}
		clean := r.m.Net
		if observeRun(t, r, shared, 17); r.m.Net != clean {
			t.Errorf("%s: a clean run's machine was not recycled", transport)
		}

		if _, err := r.Resume(ae.Checkpoint); err != nil {
			t.Fatalf("%s: resume: %v", transport, err)
		}
		resumed := r.m.Net
		if resumed == clean {
			t.Errorf("%s: the resumed run recycled a machine", transport)
		}
		if observeRun(t, r, shared, 17); r.m.Net == resumed {
			t.Errorf("%s: a resumed-into machine was recycled", transport)
		}
	}
}

// TestReuseNodeStateReset is nodeState's half of the run-reset ledger
// (comm's is TestReuseResetEqualsFresh): after a run, resetRun leaves every
// field equal to a newly allocated node's, the endpoint aside — it is the
// machine's, reset there. A new field that survives a run fails here.
func TestReuseNodeStateReset(t *testing.T) {
	g := kron(t, 10, 42)
	cfg := ckptConfig(TransportRelay, 2)
	cfg.Obs = obs.New()
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(pickBigComponentRoot(t, g)); err != nil {
		t.Fatal(err)
	}
	for node, used := range r.nodes {
		fresh := newNodeState(r, node)
		fresh.resetRun(used.ep)
		dirty := testutil.StaleFields(fresh, used)
		for _, name := range []string{"parent", "visited", "visitedDeg"} {
			if !slices.Contains(dirty, name) {
				t.Fatalf("node %d: the run left %s clean: this test no longer covers its reset", node, name)
			}
		}
		used.resetRun(used.ep)
		if stale := testutil.StaleFields(fresh, used, "ep"); len(stale) > 0 {
			t.Errorf("node %d: resetRun left %v unlike a new node's", node, stale)
		}
	}
}

// TestReuseThirdRunAllocatesLittle is the allocation guard on what a Runner
// keeps across roots: on a 16-node Direct machine the third run of a root
// allocates under a fifth of what the first did.
func TestReuseThirdRunAllocatesLittle(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts of pooled paths mean nothing under -race")
	}
	g := kron(t, 10, 42)
	cfg := DefaultConfig(16)
	cfg.SuperNodeSize, cfg.Transport, cfg.Workers = 4, TransportDirect, 1
	root := pickBigComponentRoot(t, g)
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := r.Run(root); err != nil {
			t.Fatal(err)
		}
	}
	// Two collections empty the sync.Pools earlier tests warmed: the first
	// run is measured cold, as a process's first run is.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	first := float64(after.Mallocs - before.Mallocs)
	third := testing.AllocsPerRun(1, run) // its warm-up call is the second run
	if third >= first/5 {
		t.Fatalf("the first run allocated %.0f objects, the third %.0f: not under a fifth", first, third)
	}
	t.Logf("first run %.0f objects, third %.0f", first, third)
}
