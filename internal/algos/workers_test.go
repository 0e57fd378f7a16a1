package algos

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

// widths swept by the parity tests: serial, even splits (including the
// benchmark width 4), an odd width (uneven shards), and more workers than
// bitmap words on small subgraphs.
var parityWidths = []int{2, 3, 4, 8}

// TestWorkersParitySSSP pins the driver worker contract for the SSSP relax
// loop: any pool width produces distances AND per-round statistics
// bit-identical to the serial run, on both transports.
func TestWorkersParitySSSP(t *testing.T) {
	g := kron(t, 10, 11)
	wg := testutil.Weighted(t, g, 5)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := machine(8, transport)
			cfg.Workers = 1
			base, err := SSSP(cfg, wg, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range parityWidths {
				cfg.Workers = k
				got, err := SSSP(cfg, wg, 3)
				if err != nil {
					t.Fatalf("workers=%d: %v", k, err)
				}
				if !reflect.DeepEqual(got.Dist, base.Dist) {
					t.Fatalf("workers=%d: distances diverge from serial", k)
				}
				if !reflect.DeepEqual(got.Info.Levels, base.Info.Levels) {
					t.Fatalf("workers=%d: round stats diverge from serial:\n%+v\nvs\n%+v",
						k, got.Info.Levels, base.Info.Levels)
				}
				if got.Info.Time != base.Info.Time {
					t.Fatalf("workers=%d: modelled time %v != serial %v", k, got.Info.Time, base.Info.Time)
				}
			}
		})
	}
}

// TestWorkersParityDeltaSSSP does the same for the delta-stepping bucket
// scans.
func TestWorkersParityDeltaSSSP(t *testing.T) {
	g := kron(t, 10, 11)
	wg := testutil.Weighted(t, g, 5)
	cfg := machine(8, core.TransportDirect)
	cfg.Workers = 1
	base, err := DeltaSSSP(cfg, wg, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range parityWidths {
		cfg.Workers = k
		got, err := DeltaSSSP(cfg, wg, 3, 16)
		if err != nil {
			t.Fatalf("workers=%d: %v", k, err)
		}
		if !reflect.DeepEqual(got.Dist, base.Dist) {
			t.Fatalf("workers=%d: distances diverge from serial", k)
		}
		if !reflect.DeepEqual(got.Info.Levels, base.Info.Levels) {
			t.Fatalf("workers=%d: round stats diverge from serial", k)
		}
		if got.Relaxations != base.Relaxations || got.Buckets != base.Buckets {
			t.Fatalf("workers=%d: work accounting diverges (%d/%d vs %d/%d)",
				k, got.Relaxations, got.Buckets, base.Relaxations, base.Buckets)
		}
	}
}

// checkInfoParity asserts the modelled machine never moved: per-round
// stats, modelled time and the wire totals all bit-identical to serial.
func checkInfoParity(t *testing.T, k int, got, base *RunInfo) {
	t.Helper()
	if !reflect.DeepEqual(got.Levels, base.Levels) {
		t.Fatalf("workers=%d: round stats diverge from serial:\n%+v\nvs\n%+v",
			k, got.Levels, base.Levels)
	}
	if got.Time != base.Time {
		t.Fatalf("workers=%d: modelled time %v != serial %v", k, got.Time, base.Time)
	}
	if got.NetworkBytes != base.NetworkBytes || got.NetworkMessages != base.NetworkMessages {
		t.Fatalf("workers=%d: wire totals diverge (%d bytes/%d msgs vs %d/%d)",
			k, got.NetworkBytes, got.NetworkMessages, base.NetworkBytes, base.NetworkMessages)
	}
}

// TestWorkersParityWCC: the label fold and active-bitmap scan produce
// bit-identical labels, component counts and modelled stats at every
// width, on both transports.
func TestWorkersParityWCC(t *testing.T) {
	g := kron(t, 10, 23)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := machine(8, transport)
			cfg.Workers = 1
			base, err := WCC(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range parityWidths {
				cfg.Workers = k
				got, err := WCC(cfg, g)
				if err != nil {
					t.Fatalf("workers=%d: %v", k, err)
				}
				if !reflect.DeepEqual(got.Label, base.Label) || got.Components != base.Components {
					t.Fatalf("workers=%d: labels diverge from serial", k)
				}
				checkInfoParity(t, k, got.Info, base.Info)
			}
		})
	}
}

// TestWorkersParityPageRank: ranks are compared with DeepEqual — bitwise,
// no tolerance. The fixed-point contribution accumulator makes the fold
// order-independent, so this holds across widths AND transports.
func TestWorkersParityPageRank(t *testing.T) {
	g := kron(t, 10, 31)
	const iters = 8
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := machine(8, transport)
			cfg.Workers = 1
			base, err := PageRank(cfg, g, iters, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range parityWidths {
				cfg.Workers = k
				got, err := PageRank(cfg, g, iters, 0)
				if err != nil {
					t.Fatalf("workers=%d: %v", k, err)
				}
				if !reflect.DeepEqual(got.Rank, base.Rank) {
					t.Fatalf("workers=%d: ranks are not bitwise identical to serial", k)
				}
				checkInfoParity(t, k, got.Info, base.Info)
			}
		})
	}
}

// TestWorkersParityKCore: removal fan-out, decrement fold and the
// crossing-bitmap EndRound produce bit-identical membership and stats.
// Scale 13 on 4 nodes with k=64 peels in three rounds, the first two of
// 59 346 and 33 597 pairs, so batches cross handleFanoutMin and the driver
// folds them bucketed: a temporary counter in the driver's bucketed path
// read 33 bucketed Handle batches per run at every width above 1, on both
// transports (scale 10 on 8 nodes with k=4 read 0).
func TestWorkersParityKCore(t *testing.T) {
	g := kron(t, 13, 41)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := machine(4, transport)
			cfg.Workers = 1
			base, err := KCore(cfg, g, 64)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range parityWidths {
				cfg.Workers = k
				got, err := KCore(cfg, g, 64)
				if err != nil {
					t.Fatalf("workers=%d: %v", k, err)
				}
				if !reflect.DeepEqual(got.InCore, base.InCore) || got.CoreSize != base.CoreSize {
					t.Fatalf("workers=%d: core membership diverges from serial", k)
				}
				checkInfoParity(t, k, got.Info, base.Info)
			}
		})
	}
}

// TestWorkersParityBetweenness: forward/backward sweeps with DeepEqual on
// the float centrality scores — exact because sigma adds are integer-exact
// and delta folds in fixed point.
func TestWorkersParityBetweenness(t *testing.T) {
	g := kron(t, 10, 71)
	sources := []graph.Vertex{1, 33, 200}
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := machine(8, transport)
			cfg.Workers = 1
			base, err := Betweenness(cfg, g, sources)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range parityWidths {
				cfg.Workers = k
				got, err := Betweenness(cfg, g, sources)
				if err != nil {
					t.Fatalf("workers=%d: %v", k, err)
				}
				if !reflect.DeepEqual(got.Centrality, base.Centrality) {
					t.Fatalf("workers=%d: centrality is not bitwise identical to serial", k)
				}
				checkInfoParity(t, k, got.Info, base.Info)
			}
		})
	}
}

// TestVertexShardWidth: the word-aligned shard map places every local in
// exactly one shard, shard boundaries are multiples of 64 (so bucket
// appliers never share a bitmap word), and the shard index never reaches
// the clamped worker count.
func TestVertexShardWidth(t *testing.T) {
	for _, n := range []int64{1, 63, 64, 65, 1000, 4096} {
		for _, k := range []int{1, 2, 3, 8, 100} {
			per, workers := vertexShardWidth(n, k)
			if workers < 1 || workers > k {
				t.Fatalf("n=%d k=%d: clamped workers = %d", n, k, workers)
			}
			if workers == 1 {
				continue // serial fallback: per is unused by callers
			}
			if per%64 != 0 {
				t.Fatalf("n=%d k=%d: shard width %d not word-aligned", n, k, per)
			}
			prev := 0
			for i := int64(0); i < n; i++ {
				s := int(i / per)
				if s >= workers {
					t.Fatalf("n=%d k=%d: local %d maps to shard %d of %d", n, k, i, s, workers)
				}
				if s != prev && s != prev+1 {
					t.Fatalf("n=%d k=%d: shard map not contiguous at local %d", n, k, i)
				}
				prev = s
			}
		}
	}
}

// TestTakeShardsReuse: the scratch keeps per-shard capacity across rounds
// and returns empty shards at any requested width.
func TestTakeShardsReuse(t *testing.T) {
	var scratch [][]comm.Pair
	scratch = takeShards(scratch, 3)
	if len(scratch) != 3 {
		t.Fatalf("got %d shards, want 3", len(scratch))
	}
	scratch[1] = append(scratch[1], comm.Pair{7, 9})
	grown := cap(scratch[1])
	scratch = takeShards(scratch, 2)
	if len(scratch) != 2 || len(scratch[1]) != 0 {
		t.Fatalf("reslice did not empty the shards: %v", scratch)
	}
	if cap(scratch[1]) != grown {
		t.Fatalf("shard capacity dropped from %d to %d", grown, cap(scratch[1]))
	}
	scratch = takeShards(scratch, 5)
	if len(scratch) != 5 {
		t.Fatalf("got %d shards, want 5", len(scratch))
	}
}

// TestChunkedSumWidthIndependent: the canonical chunk structure makes the
// float sum bit-identical for every worker count — the property PageRank's
// dangling scan relies on.
func TestChunkedSumWidthIndependent(t *testing.T) {
	const n = 10000
	vals := make([]float64, n)
	x := 0.1
	for i := range vals {
		x = x * 1.37
		if x > 1 {
			x -= 1
		}
		vals[i] = x / 1e3
	}
	f := func(i int64) float64 { return vals[i] }
	base := chunkedSum(n, 1, f)
	for _, k := range []int{2, 3, 8, 64} {
		if got := chunkedSum(n, k, f); got != base {
			t.Fatalf("k=%d: chunked sum %v != serial %v", k, got, base)
		}
	}
	if chunkedSum(0, 4, f) != 0 {
		t.Fatal("empty sum not zero")
	}
}

// TestAlgosProgressEvents: an SSSP run publishes run-start, per-round and
// run-done events on the live stream, labelled with the kernel name — the
// payload /events subscribers see.
func TestAlgosProgressEvents(t *testing.T) {
	g := kron(t, 9, 2)
	wg := testutil.Weighted(t, g, 3)
	cfg := machine(4, core.TransportDirect)
	cfg.Obs = obs.New()
	cfg.Obs.Progress = obs.NewProgressBroker()
	events, cancel := cfg.Obs.Progress.Subscribe(1024)
	defer cancel()

	res, err := SSSP(cfg, wg, 240)
	if err != nil {
		t.Fatal(err)
	}

	var starts, rounds, dones int
	for done := false; !done; {
		select {
		case ev := <-events:
			if ev.Kernel != "sssp" {
				t.Fatalf("event kernel = %q, want sssp (%+v)", ev.Kernel, ev)
			}
			switch ev.Kind {
			case obs.EventRunStart:
				starts++
				if ev.Root != 240 {
					t.Fatalf("run-start root = %d, want 240", ev.Root)
				}
			case obs.EventLevel:
				if ev.Level != rounds {
					t.Fatalf("round event %d arrived out of order (want %d)", ev.Level, rounds)
				}
				if ev.Direction != "round" {
					t.Fatalf("round event direction = %q, want round", ev.Direction)
				}
				rounds++
			case obs.EventRunDone:
				dones++
				if ev.GTEPS <= 0 {
					t.Fatalf("run-done rate = %v, want > 0", ev.GTEPS)
				}
			}
		default:
			done = true
		}
	}
	if starts != 1 || dones != 1 {
		t.Fatalf("starts=%d dones=%d, want 1/1", starts, dones)
	}
	if rounds != len(res.Info.Levels) {
		t.Fatalf("%d round events for %d recorded rounds", rounds, len(res.Info.Levels))
	}
}

// TestAlgosTraceRecorded: an SSSP run records a reconcilable RunTrace and
// module spans, and the pair exports to a Chrome trace with level and
// module slices — the -chrome-trace payload.
func TestAlgosTraceRecorded(t *testing.T) {
	g := kron(t, 9, 2)
	wg := testutil.Weighted(t, g, 3)
	cfg := machine(4, core.TransportDirect)
	cfg.Workers = 2
	cfg.Obs = obs.New()
	cfg.Obs.Trace = obs.NewTraceRecorder()
	cfg.Obs.Spans = obs.NewSpanRecorder()

	res, err := SSSP(cfg, wg, 240)
	if err != nil {
		t.Fatal(err)
	}

	traces := cfg.Obs.Trace.Runs()
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	rt := traces[0]
	if err := rt.Reconcile(); err != nil {
		t.Fatalf("trace does not reconcile: %v", err)
	}
	if len(rt.Levels) != len(res.Info.Levels) {
		t.Fatalf("trace has %d levels, run reported %d rounds", len(rt.Levels), len(res.Info.Levels))
	}
	for i, s := range rt.Levels {
		if s.FrontierVertices != res.Info.Levels[i].FrontierVertices {
			t.Fatalf("round %d: trace frontier %d != stats frontier %d",
				i, s.FrontierVertices, res.Info.Levels[i].FrontierVertices)
		}
	}

	spans := cfg.Obs.Spans.Runs()
	if len(spans) != 1 || len(spans[0].Spans) == 0 {
		t.Fatalf("span recorder runs = %+v, want one run with module spans", spans)
	}
	var sawGenWorkers, sawHandlerWorkers bool
	for _, sp := range spans[0].Spans {
		if sp.Module == obs.ModuleForwardGenerator && sp.Workers == 2 {
			sawGenWorkers = true
		}
		if sp.Module == obs.ModuleForwardHandler && sp.Workers == 2 {
			sawHandlerWorkers = true
		}
	}
	if !sawGenWorkers {
		t.Fatal("no generator span attributes the worker-pool width")
	}
	if !sawHandlerWorkers {
		t.Fatal("no handler span attributes the worker-pool width")
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, traces, spans); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cat": "level"`, `"cat": "module"`, `"cat": "run"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("chrome export missing %s slices", want)
		}
	}

	sums, err := obs.ReadRunSummaries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || len(sums[0].Levels) != len(rt.Levels) || len(sums[0].Modules) == 0 {
		t.Fatalf("tracediff summary of the export is incomplete: %+v", sums)
	}
}

// TestKernelSendAllocsDoNotScaleWithEdges: the send path stages, recycles
// delivered batches and regroups relay quanta without per-pair heap work, so
// a whole run — set-up, rounds and teardown — allocates well under one object
// per twenty generated pairs, at two scales a factor of four apart. (The
// per-pair Send path this replaced sat above one allocation per pair.)
func TestKernelSendAllocsDoNotScaleWithEdges(t *testing.T) {
	kernels := map[string]tableRun{"pagerank4": {"pagerank", "iterations=4 damping=0.85"}, "wcc": {"wcc", ""}}
	for _, scale := range []int{10, 12} {
		wg := &graph.WeightedCSR{CSR: kron(t, scale, 11)}
		for name, run := range kernels {
			for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
				for _, workers := range []int{1, 3} {
					cfg := machine(4, transport)
					cfg.SuperNodeSize = 2 // relay: 2 groups of 2
					cfg.Workers = workers
					if _, err := runInfo(cfg, wg, graph.NoVertex, run); err != nil { // warm the pools
						t.Fatal(err)
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					info, err := runInfo(cfg, wg, graph.NoVertex, run)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					var pairs int64
					for _, s := range info.Levels {
						pairs += s.FrontierEdges
					}
					perPair := float64(after.Mallocs-before.Mallocs) / float64(pairs)
					t.Logf("scale %d %s %s workers=%d: %d mallocs / %d pairs = %.4f",
						scale, name, transport, workers, after.Mallocs-before.Mallocs, pairs, perPair)
					if perPair >= 0.05 {
						t.Errorf("scale %d %s %s workers=%d: %.4f mallocs per generated pair, want < 0.05",
							scale, name, transport, workers, perPair)
					}
				}
			}
		}
	}
}
