// Command graph500 runs the full Graph500 benchmark on the simulated
// Sunway TaihuLight machine: Kronecker generation, graph construction,
// 64 rooted BFS runs on the configured machine, validation, and
// harmonic-mean TEPS reporting.
//
// Example:
//
//	graph500 -scale 18 -nodes 64 -transport relay -engine cpe
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

func main() {
	var (
		scale      = flag.Int("scale", 16, "log2 of the vertex count")
		edgefactor = flag.Int("edgefactor", 16, "edges per vertex")
		nodes      = flag.Int("nodes", 16, "simulated compute nodes")
		superSize  = flag.Int("super", 16, "nodes per super node (fat-tree scaling)")
		roots      = flag.Int("roots", 64, "number of BFS roots (Graph500 uses 64)")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		transport  = flag.String("transport", "relay", "messaging scheme: direct | relay")
		engine     = flag.String("engine", "cpe", "module processing: mpe | cpe")
		noOpt      = flag.Bool("no-direction-opt", false, "disable the hybrid top-down/bottom-up policy")
		noHubs     = flag.Bool("no-hub-prefetch", false, "disable degree-aware hub prefetching")
		noValidate = flag.Bool("skip-validation", false, "skip result validation (timing sweeps only)")
		input      = flag.String("input", "", "edge-list file to benchmark instead of generating (see -format)")
		format     = flag.String("format", "text", "input format: text | binary")
		vertices   = flag.Int64("vertices", 0, "vertex count for -input (0 = max vertex ID + 1)")
		verbose    = flag.Bool("verbose", false, "print per-root and per-level detail")
		codec      = flag.String("codec", "", "wire codec for every channel: raw | varint-delta | bitmap | adaptive (empty = raw; see docs/ARCHITECTURE.md)")
		codecBwd   = flag.String("codec-backward", "", "wire codec override for the backward (bottom-up) channel only: raw | varint-delta | bitmap | adaptive (empty = no override)")
		trace      = flag.String("trace", "", "write per-root/per-level statistics as JSON lines to this file")
		metrics    = flag.Bool("metrics", false, "print the unified metrics registry after the run (see docs/OBSERVABILITY.md)")
		traceOut   = flag.String("trace-out", "", "write the structured per-level BFS trace (one RunTrace per root) as JSON to this file")
		serveAddr  = flag.String("serve", "", "serve live telemetry on this address during the run: /metrics (Prometheus), /traces, /events (SSE), /debug/pprof")
		chromeOut  = flag.String("chrome-trace", "", "write the run timeline (per-node module tracks + relay flow arrows) as Chrome trace-event JSON to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the kernel runs to this file")
		exectrace  = flag.String("exec-trace", "", "write a runtime/trace execution trace of the kernel runs to this file")
		kernel     = flag.String("kernel", "bfs", "benchmark kernel: bfs | sssp (Graph500 v3 second kernel)")
		delta      = flag.Int64("delta", 0, "sssp kernel: delta-stepping bucket width (0 = Bellman-Ford)")
		workers    = flag.Int("workers", 0, "host worker goroutines per simulated node, the CPE-cluster stand-in (0 = GOMAXPROCS/nodes, 1 = serial; results are identical for every width)")

		flightDump = flag.String("flight-dump", "", "write the flight-recorder post-mortem of an aborted run to this file (default: <-trace-out>.flight.json when -trace-out is set; render with flightview)")

		checkpointEvery = flag.Int("checkpoint-every", 0, "write a resumable machine checkpoint every N completed BFS levels (0 = off; see docs/CHAOS.md)")
		checkpointPath  = flag.String("checkpoint", "", "checkpoint file path (default: <-flight-dump>.ckpt.json on abort when -checkpoint-every is set)")
		resumeFrom      = flag.String("resume", "", "resume an interrupted BFS run from this checkpoint file and print its final result (bfs kernel only)")

		chaosSeed       = flag.Int64("chaos-seed", 0, "inject a seeded random fault plan into the simulated fabric (0 = off; see docs/CHAOS.md)")
		chaosPlan       = flag.String("chaos-plan", "", "inject an explicit fault plan, comma-separated fault specs like kill@2:l1:data/forward:0 (wins over -chaos-seed; see docs/CHAOS.md)")
		levelTimeout    = flag.Duration("level-timeout", 0, "abort the run if no BFS level completes within this duration (0 = no watchdog)")
		stragglerFactor = flag.Float64("straggler-factor", 0, "flag nodes whose per-level module host time exceeds this multiple of the fleet mean (0 = off)")
	)
	flag.Parse()

	machine := core.Config{
		Nodes:              *nodes,
		SuperNodeSize:      *superSize,
		DirectionOptimized: !*noOpt,
		HubPrefetch:        !*noHubs,
		SmallMessageMPE:    true,
		Workers:            *workers,
	}
	switch *transport {
	case "direct":
		machine.Transport = core.TransportDirect
	case "relay":
		machine.Transport = core.TransportRelay
	default:
		fatalf("unknown transport %q (want direct or relay)", *transport)
	}
	switch *engine {
	case "mpe":
		machine.Engine = perf.EngineMPE
	case "cpe":
		machine.Engine = perf.EngineCPE
	default:
		fatalf("unknown engine %q (want mpe or cpe)", *engine)
	}

	if *codec != "" {
		c, err := comm.CodecByName(*codec)
		if err != nil {
			fatalf("%v", err)
		}
		machine.Codec = c
	}
	if *codecBwd != "" {
		c, err := comm.CodecByName(*codecBwd)
		if err != nil {
			fatalf("%v", err)
		}
		machine.CodecBackward = c
	}
	machine.LevelTimeout = *levelTimeout
	machine.StragglerFactor = *stragglerFactor
	if *chaosPlan != "" {
		plan, err := chaos.ParsePlan(*chaosPlan)
		if err != nil {
			fatalf("%v", err)
		}
		machine.Chaos = &plan
	} else if *chaosSeed != 0 {
		plan := chaos.NewRandomPlan(*chaosSeed, *nodes)
		machine.Chaos = &plan
		fmt.Fprintf(os.Stderr, "graph500: chaos plan from seed %d: %s\n", *chaosSeed, plan)
	}
	machine.Profile = obs.ProfileConfig{CPUProfile: *cpuprofile, ExecTrace: *exectrace}
	if *flightDump == "" && *traceOut != "" {
		*flightDump = *traceOut + ".flight.json"
	}
	machine.FlightDump = *flightDump
	machine.CheckpointEvery = *checkpointEvery
	machine.CheckpointPath = *checkpointPath

	var observer *obs.Observer
	if *metrics || *traceOut != "" || *serveAddr != "" || *chromeOut != "" {
		observer = obs.New()
		// Share one recorder across every root's run so /debug/flight (and
		// an abort's post-mortem) sees the whole benchmark's black box.
		observer.Flight = obs.NewFlightRecorder(0)
		machine.Obs = observer
	}
	if *chromeOut != "" {
		observer.Spans = obs.NewSpanRecorder()
	}
	var server *obs.Server
	if *serveAddr != "" {
		observer.Progress = obs.NewProgressBroker()
		var err error
		server, err = obs.Serve(*serveAddr, observer)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "graph500: telemetry on %s (/metrics /traces /events /debug/pprof)\n", server.URL())
	}

	if *resumeFrom != "" {
		resumeBFS(*resumeFrom, machine, *scale, *edgefactor, *seed, *input, *format, *vertices, *noValidate)
		if observer != nil {
			if err := emitObservability(observer, *metrics, *traceOut, *chromeOut); err != nil {
				fatalf("%v", err)
			}
		}
		holdServer(server)
		return
	}

	if *kernel == "sssp" {
		report, err := graph500.RunSSSP(graph500.SSSPBenchConfig{
			Scale:      *scale,
			EdgeFactor: *edgefactor,
			Seed:       *seed,
			Roots:      *roots,
			Delta:      *delta,
			Machine:    machine,
		})
		if err != nil {
			var ae *core.AbortError
			if errors.As(err, &ae) {
				printAbortReport(ae)
				os.Exit(1)
			}
			fatalf("sssp benchmark failed: %v", err)
		}
		fmt.Printf("KERNEL:               sssp (delta=%d)\n", *delta)
		fmt.Printf("SCALE:                %d\n", *scale)
		fmt.Printf("NROOTS:               %d\n", len(report.Runs))
		fmt.Printf("num_vertices:         %d\n", report.NumVertices)
		fmt.Printf("num_undirected_edges: %d\n", report.NumEdges)
		fmt.Printf("machine:              %s, %d nodes\n", machine.Name(), machine.Nodes)
		fmt.Printf("sssp_time:            %s\n", report.KernelTime)
		fmt.Printf("sssp_TEPS:            %s\n", report.TEPS)
		fmt.Printf("harmonic_mean_GTEPS:  %.4f\n", report.GTEPSHarmonicMean())
		if observer != nil {
			if err := emitObservability(observer, *metrics, *traceOut, *chromeOut); err != nil {
				fatalf("%v", err)
			}
		}
		holdServer(server)
		return
	}
	if *kernel != "bfs" {
		fatalf("unknown kernel %q (want bfs or sssp)", *kernel)
	}

	cfg := graph500.BenchConfig{
		Scale:          *scale,
		EdgeFactor:     *edgefactor,
		Seed:           *seed,
		Roots:          *roots,
		SkipValidation: *noValidate,
		KeepLevels:     *verbose || *trace != "",
		Machine:        machine,
	}
	if *input != "" {
		edges, n, err := loadEdges(*input, *format, *vertices)
		if err != nil {
			fatalf("loading %s: %v", *input, err)
		}
		cfg.Edges, cfg.NumVertices = edges, n
	}

	report, err := graph500.Run(cfg)
	if err != nil {
		var ae *core.AbortError
		if errors.As(err, &ae) {
			printAbortReport(ae)
			os.Exit(1)
		}
		fatalf("benchmark failed: %v", err)
	}
	if *verbose {
		report.PrintDetail(os.Stdout)
	} else {
		report.Print(os.Stdout)
	}
	if *trace != "" {
		if err := writeTrace(*trace, report); err != nil {
			fatalf("writing trace: %v", err)
		}
	}
	if observer != nil {
		if err := emitObservability(observer, *metrics, *traceOut, *chromeOut); err != nil {
			fatalf("%v", err)
		}
	}
	holdServer(server)
}

// resumeBFS continues an interrupted BFS run from a checkpoint file: the
// graph is rebuilt from the same generator flags (the checkpoint's
// fingerprint rejects a mismatched graph), the machine configuration is
// reconstructed from the checkpoint, and only host-side knobs (workers,
// watchdog, observability, chaos, further checkpointing) come from the
// command line. The finished result is bitwise identical to what the
// uninterrupted run would have produced.
func resumeBFS(path string, host core.Config, scale, edgefactor int, seed int64, input, format string, vertices int64, noValidate bool) {
	c, err := ckpt.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	if c.Kernel != "bfs" {
		fatalf("checkpoint %s holds a %q run; graph500 -resume supports the bfs kernel (resume other kernels via the algos API, see docs/CHAOS.md)", path, c.Kernel)
	}

	var g *graph.CSR
	if input != "" {
		edges, n, err := loadEdges(input, format, vertices)
		if err != nil {
			fatalf("loading %s: %v", input, err)
		}
		if g, err = graph.BuildCSR(n, edges); err != nil {
			fatalf("%v", err)
		}
	} else {
		kcfg := graph.KroneckerConfig{Scale: scale, EdgeFactor: edgefactor, Seed: seed}
		edges, err := graph.GenerateKronecker(kcfg)
		if err != nil {
			fatalf("%v", err)
		}
		if g, err = graph.BuildCSR(kcfg.NumVertices(), edges); err != nil {
			fatalf("%v", err)
		}
	}

	cfg, err := core.ConfigFromCheckpoint(c.Config)
	if err != nil {
		fatalf("%v", err)
	}
	// Host-side knobs are free to differ from the interrupted run — the
	// modelled result does not depend on them.
	cfg.Workers = host.Workers
	cfg.LevelTimeout = host.LevelTimeout
	cfg.StragglerFactor = host.StragglerFactor
	cfg.FlightDump = host.FlightDump
	cfg.Obs = host.Obs
	cfg.Profile = host.Profile
	cfg.Chaos = host.Chaos
	cfg.CheckpointEvery = host.CheckpointEvery
	cfg.CheckpointPath = host.CheckpointPath

	runner, err := core.NewRunner(cfg, g)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "graph500: resuming bfs from root %d at level boundary %d (%s)\n", c.Root, c.Level, path)
	res, err := runner.Resume(c)
	if err != nil {
		var ae *core.AbortError
		if errors.As(err, &ae) {
			printAbortReport(ae)
			os.Exit(1)
		}
		fatalf("resume failed: %v", err)
	}
	validated := "skipped"
	if !noValidate {
		if _, err := graph500.ValidateParallel(g, graph.Vertex(c.Root), res.Parent, 0); err != nil {
			fatalf("validation failed for resumed root %d: %v", c.Root, err)
		}
		validated = "ok"
	}
	fmt.Printf("KERNEL:               bfs (resumed from level %d)\n", c.Level)
	fmt.Printf("root:                 %d\n", c.Root)
	fmt.Printf("num_vertices:         %d\n", g.N)
	fmt.Printf("num_undirected_edges: %d\n", g.NumEdges()/2)
	fmt.Printf("machine:              %s, %d nodes\n", cfg.Name(), cfg.Nodes)
	fmt.Printf("visited:              %d\n", res.Visited)
	fmt.Printf("traversed_edges:      %d\n", res.TraversedEdges)
	fmt.Printf("levels:               %d\n", len(res.Levels))
	fmt.Printf("bfs_time:             %.6f s (modelled)\n", res.Time)
	fmt.Printf("GTEPS:                %.4f\n", res.GTEPS)
	fmt.Printf("validation:           %s\n", validated)
}

// emitObservability prints the metrics table and/or writes the structured
// and Chrome traces, verifying every run's books balance first.
func emitObservability(observer *obs.Observer, printMetrics bool, traceOut, chromeOut string) error {
	for _, run := range observer.Trace.Runs() {
		if err := run.Reconcile(); err != nil {
			return fmt.Errorf("trace for root %d does not reconcile: %w", run.Root, err)
		}
	}
	if printMetrics {
		fmt.Println()
		observer.Metrics.WriteTable(os.Stdout)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := observer.Trace.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if chromeOut != "" {
		f, err := os.Create(chromeOut)
		if err != nil {
			return fmt.Errorf("writing chrome trace: %w", err)
		}
		if err := obs.WriteChromeTrace(f, observer.Trace.Runs(), observer.Spans.Runs()); err != nil {
			f.Close()
			return fmt.Errorf("writing chrome trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing chrome trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "graph500: chrome trace written to %s (load in chrome://tracing or https://ui.perfetto.dev)\n", chromeOut)
	}
	return nil
}

// printAbortReport renders the partial result of an aborted run: the
// root cause plus every level that completed before the fabric died, so
// a chaos-injected failure is still diagnosable from the console.
func printAbortReport(ae *core.AbortError) {
	fmt.Fprintf(os.Stderr, "graph500: run from root %d ABORTED: %v\n", ae.Root, ae.Cause)
	fmt.Fprintf(os.Stderr, "graph500: partial result: %d completed levels\n", len(ae.CompletedLevels))
	for _, l := range ae.CompletedLevels {
		fmt.Fprintf(os.Stderr, "    L%-2d %-9s work=%-10d sent=%-10d msgs=%-6d %s\n",
			l.Level, l.Direction, l.MaxNodeProcessedBytes, l.MaxNodeSentBytes,
			l.MaxNodeMessages, l.Net.String())
	}
	if ae.FlightPath != "" {
		fmt.Fprintf(os.Stderr, "graph500: flight-recorder post-mortem written to %s (render with flightview)\n", ae.FlightPath)
	} else if ae.FlightDump != nil {
		fmt.Fprintf(os.Stderr, "graph500: flight-recorder post-mortem captured %d event(s); pass -flight-dump to write it to a file\n",
			len(ae.FlightDump.Events))
	}
	if ae.CheckpointPath != "" {
		fmt.Fprintf(os.Stderr, "graph500: checkpoint at level boundary %d written to %s (continue with -resume)\n",
			ae.Checkpoint.Level, ae.CheckpointPath)
	} else if ae.Checkpoint != nil {
		fmt.Fprintf(os.Stderr, "graph500: checkpoint at level boundary %d captured in memory; pass -checkpoint or -flight-dump to write it to a file\n",
			ae.Checkpoint.Level)
	}
}

// holdServer keeps the telemetry server alive after the benchmark so its
// endpoints stay inspectable; Ctrl-C exits.
func holdServer(server *obs.Server) {
	if server == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "graph500: benchmark done; telemetry still on %s — Ctrl-C to exit\n", server.URL())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	server.Close()
}

// writeTrace dumps one JSON object per BFS run (with its per-level
// statistics) for external analysis tooling.
func writeTrace(path string, report *graph500.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, run := range report.Runs {
		if err := enc.Encode(run); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// loadEdges reads an edge list and infers the vertex count when not given.
func loadEdges(path, format string, vertices int64) ([]graph.Edge, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var edges []graph.Edge
	switch format {
	case "text":
		edges, err = graph.ReadEdgesText(f)
	case "binary":
		edges, err = graph.ReadEdgesBinary(f)
	default:
		return nil, 0, fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return nil, 0, err
	}
	if vertices == 0 {
		for _, e := range edges {
			if int64(e.From) >= vertices {
				vertices = int64(e.From) + 1
			}
			if int64(e.To) >= vertices {
				vertices = int64(e.To) + 1
			}
		}
	}
	return edges, vertices, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graph500: "+format+"\n", args...)
	os.Exit(1)
}
