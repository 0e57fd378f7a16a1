// Command swbfs-bench regenerates the paper's tables and figures on the
// simulated machine. Each subcommand prints one artifact; `all` prints
// everything in paper order.
//
//	swbfs-bench table1    machine specification (Table 1)
//	swbfs-bench fig3      DMA bandwidth vs chunk size (Figure 3)
//	swbfs-bench fig5      memory bandwidth vs CPE count (Figure 5)
//	swbfs-bench regbus    contention-free shuffle bandwidth (Section 4.3)
//	swbfs-bench relaybw   relay vs direct big-message bandwidth (Section 4.4)
//	swbfs-bench msgcount  connection & MPI memory scaling (Section 4.4)
//	swbfs-bench fig11     technique comparison sweep (Figure 11)
//	swbfs-bench fig12     weak scaling sweep (Figure 12)
//	swbfs-bench strong    strong-scaling complement to Figure 12
//	swbfs-bench table2    cross-system comparison (Table 2)
//	swbfs-bench headline  full-machine GTEPS projection
//	swbfs-bench ablations design-choice ablation study
//	swbfs-bench policy    direction-policy threshold sensitivity
//	swbfs-bench all       everything
//
// Use -quick for smaller sweeps, -full for larger ones, and
// -format csv|json for machine-readable output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"os/signal"
	"syscall"

	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/experiments"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "small sweeps (seconds)")
		full       = flag.Bool("full", false, "large sweeps (minutes; up to 256 functional nodes)")
		seed       = flag.Int64("seed", 20160624, "deterministic seed")
		roots      = flag.Int("roots", 0, "BFS roots per data point (0 = per-experiment default)")
		format     = flag.String("format", "text", "output format: text | csv | json")
		metrics    = flag.Bool("metrics", false, "print the unified metrics registry after the sweep (see docs/OBSERVABILITY.md)")
		traceOut   = flag.String("trace-out", "", "write the structured per-level BFS traces of all functional runs as JSON to this file")
		chromeOut  = flag.String("chrome-trace", "", "write the sweep's run timelines (per-node module tracks) as Chrome trace-event JSON to this file")
		serveAddr  = flag.String("serve", "", "serve live telemetry on this address during the sweep: /metrics (Prometheus), /traces, /events (SSE), /debug/pprof")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		exectrace  = flag.String("exec-trace", "", "write a runtime/trace execution trace of the sweep to this file")
		workers    = flag.Int("workers", 0, "host worker goroutines per simulated node (0 = GOMAXPROCS/nodes; results are identical for every width)")
		codec      = flag.String("codec", "", "wire codec for every channel of functional runs: raw | varint-delta | bitmap | adaptive (empty = raw; see docs/ARCHITECTURE.md)")
		codecBwd   = flag.String("codec-backward", "", "wire codec override for the backward (bottom-up) channel of functional runs: raw | varint-delta | bitmap | adaptive (empty = no override)")
		flightDump = flag.String("flight-dump", "", "write the flight-recorder post-mortem of an aborted functional run to this file (default: <-trace-out>.flight.json when -trace-out is set; render with flightview)")

		checkpointEvery = flag.Int("checkpoint-every", 0, "write a resumable machine checkpoint every N completed levels of each functional measurement (0 = off; see docs/CHAOS.md)")
		checkpointPath  = flag.String("checkpoint", "", "checkpoint file path (default: <-flight-dump>.ckpt.json on abort when -checkpoint-every is set)")
		resumeFrom      = flag.String("resume", "", "resume an interrupted functional BFS run from this checkpoint file (no subcommand; graph rebuilt from -seed)")

		chaosSeed       = flag.Int64("chaos-seed", 0, "inject a seeded random fault plan into every functional measurement (0 = off; see docs/CHAOS.md)")
		chaosPlan       = flag.String("chaos-plan", "", "inject an explicit fault plan into every functional measurement (wins over -chaos-seed; see docs/CHAOS.md)")
		levelTimeout    = flag.Duration("level-timeout", 0, "abort a functional run if no BFS level completes within this duration (0 = no watchdog)")
		stragglerFactor = flag.Float64("straggler-factor", 0, "flag nodes whose per-level module host time exceeds this multiple of the fleet mean (0 = off)")
	)
	flag.Parse()
	if *resumeFrom == "" && flag.NArg() != 1 {
		usage()
	}
	if *resumeFrom != "" && flag.NArg() != 0 {
		usage()
	}
	var cmd string
	if flag.NArg() == 1 {
		cmd = flag.Arg(0)
	}
	// host carries the command line's host-side knobs onto every functional
	// run of every subcommand (and onto a -resume).
	host := experiments.Host{
		Workers:         *workers,
		ChaosSeed:       *chaosSeed,
		LevelTimeout:    *levelTimeout,
		StragglerFactor: *stragglerFactor,
		CheckpointEvery: *checkpointEvery,
		CheckpointPath:  *checkpointPath,
	}
	var err error
	if host.Codec, err = comm.CodecByName(*codec); err != nil {
		fatalf("%v", err)
	}
	if host.CodecBackward, err = comm.CodecByName(*codecBwd); err != nil {
		fatalf("%v", err)
	}
	if *flightDump == "" && *traceOut != "" {
		*flightDump = *traceOut + ".flight.json"
	}
	host.FlightDump = *flightDump
	if *chaosPlan != "" {
		plan, err := chaos.ParsePlan(*chaosPlan)
		if err != nil {
			fatalf("%v", err)
		}
		host.ChaosPlan = &plan
	}

	var observer *obs.Observer
	if *metrics || *traceOut != "" || *serveAddr != "" || *chromeOut != "" {
		observer = obs.New()
		// One shared recorder across the sweep so /debug/flight serves the
		// whole black box, not just the last measurement's.
		observer.Flight = obs.NewFlightRecorder(0)
		host.Obs = observer
	}
	if *chromeOut != "" {
		observer.Spans = obs.NewSpanRecorder()
	}
	var server *obs.Server
	if *serveAddr != "" {
		observer.Progress = obs.NewProgressBroker()
		server, err = obs.Serve(*serveAddr, observer)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "swbfs-bench: telemetry on %s (/metrics /traces /events /debug/pprof)\n", server.URL())
	}

	// Host-side profiling of the whole sweep (the same StartProfile hook
	// cmd/graph500 wires around its kernel runs).
	if *cpuprofile != "" || *exectrace != "" {
		stop, err := obs.StartProfile(obs.ProfileConfig{CPUProfile: *cpuprofile, ExecTrace: *exectrace})
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "swbfs-bench: stopping profile: %v\n", err)
			}
		}()
	}

	fig11opts := experiments.Fig11Options{Seed: *seed, Roots: *roots, Host: host}
	fig12opts := experiments.Fig12Options{Seed: *seed, Roots: *roots, Host: host}
	headlineLog := 13
	switch {
	case *quick:
		fig11opts.FunctionalNodes = []int{1, 4, 16}
		fig11opts.PerNodeLog = 11
		fig12opts.FunctionalNodes = []int{4, 16}
		fig12opts.PerNodeLogs = []int{7, 9, 11}
		headlineLog = 11
	case *full:
		fig11opts.FunctionalNodes = []int{1, 4, 16, 64, 256}
		fig12opts.FunctionalNodes = []int{4, 16, 64, 256}
	}

	emit := func(t *experiments.Table) {
		switch *format {
		case "csv":
			if err := t.WriteCSV(os.Stdout); err != nil {
				fatalf("csv: %v", err)
			}
		case "json":
			if err := t.WriteJSON(os.Stdout); err != nil {
				fatalf("json: %v", err)
			}
		default:
			t.Print(os.Stdout)
		}
	}

	run := func(name string) {
		switch name {
		case "table1":
			emit(experiments.Table1())
		case "fig3":
			emit(experiments.Fig3())
		case "fig5":
			emit(experiments.Fig5())
		case "regbus":
			t, err := experiments.RegBus(0)
			if err != nil {
				fatalf("regbus: %v", err)
			}
			emit(t)
		case "relaybw":
			emit(experiments.RelayBW())
		case "msgcount":
			emit(experiments.MsgCount())
		case "fig11":
			emit(experiments.Fig11(fig11opts))
		case "fig12":
			emit(experiments.Fig12(fig12opts))
		case "strong":
			emit(experiments.StrongScaling(experiments.StrongOptions{Seed: *seed, Roots: *roots, Quick: *quick, Host: host}))
		case "table2":
			_, proj := experiments.Headline(host, headlineLog, *roots, *seed)
			emit(experiments.Table2(proj))
		case "ablations":
			ablOpts := experiments.AblationOptions{Seed: *seed, Roots: *roots, Host: host}
			if *quick {
				ablOpts.Scale = 13
			}
			t, err := experiments.Ablations(ablOpts)
			if err != nil {
				fatalf("ablations: %v", err)
			}
			emit(t)
		case "policy":
			polOpts := experiments.PolicySweepOptions{Seed: *seed, Roots: *roots, Host: host}
			if *quick {
				polOpts.Scale = 12
			}
			t, err := experiments.PolicySweep(polOpts)
			if err != nil {
				fatalf("policy: %v", err)
			}
			emit(t)
		case "headline":
			m, proj := experiments.Headline(host, headlineLog, *roots, *seed)
			if m.Crashed() {
				fatalf("headline measurement failed: %v", m.Err)
			}
			fmt.Printf("functional: %d nodes, %d vtx/node, %.3f GTEPS (measured)\n",
				m.Nodes, m.PerNodeVertices, m.GTEPS)
			if proj.Crashed() {
				fatalf("projection failed: %v", proj.Err)
			}
			fmt.Printf("projected:  %d nodes, %.1f GTEPS (modelled)\n", proj.Nodes, proj.GTEPS)
			fmt.Printf("paper:      40,768 nodes, 23755.7 GTEPS (measured on TaihuLight)\n")
		default:
			usage()
		}
	}

	switch {
	case *resumeFrom != "":
		resumeBFS(*resumeFrom, *seed, host)
	case cmd == "all":
		for _, name := range []string{
			"table1", "fig3", "fig5", "regbus", "relaybw", "msgcount",
			"fig11", "fig12", "strong", "table2", "headline", "ablations", "policy",
		} {
			run(name)
			fmt.Println()
		}
	default:
		run(cmd)
	}

	if observer != nil {
		if *metrics {
			fmt.Println()
			observer.Metrics.WriteTable(os.Stdout)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatalf("writing trace: %v", err)
			}
			if err := observer.Trace.WriteJSON(f); err != nil {
				f.Close()
				fatalf("writing trace: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("writing trace: %v", err)
			}
		}
		if *chromeOut != "" {
			f, err := os.Create(*chromeOut)
			if err != nil {
				fatalf("writing chrome trace: %v", err)
			}
			if err := obs.WriteChromeTrace(f, observer.Trace.Runs(), observer.Spans.Runs()); err != nil {
				f.Close()
				fatalf("writing chrome trace: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("writing chrome trace: %v", err)
			}
			fmt.Fprintf(os.Stderr, "swbfs-bench: chrome trace written to %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *chromeOut)
		}
	}
	if server != nil {
		fmt.Fprintf(os.Stderr, "swbfs-bench: sweep done; telemetry still on %s — Ctrl-C to exit\n", server.URL())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		server.Close()
	}
}

// resumeBFS continues an interrupted functional BFS run from a
// level-boundary checkpoint file (see docs/CHAOS.md "Checkpoint &
// resume"). The Kronecker graph is rebuilt from -seed and the
// checkpoint's vertex count — the checkpoint's machine fingerprint
// rejects a mismatched graph — and the machine configuration comes from
// the checkpoint itself, codecs included; only host-side knobs (workers,
// watchdog, observability, chaos, further checkpointing) come from the
// command line. The finished run is bitwise identical to an uninterrupted
// one.
func resumeBFS(path string, seed int64, host experiments.Host) {
	c, err := ckpt.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	if c.Kernel != "bfs" {
		fatalf("checkpoint %s holds a %q run; swbfs-bench -resume supports the bfs kernel (resume other kernels via the algos API)", path, c.Kernel)
	}
	n := c.Config.GraphN
	if n <= 0 || n&(n-1) != 0 {
		fatalf("checkpoint vertex count %d is not a power of two — not a swbfs-bench Kronecker run", n)
	}
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: bits.TrailingZeros64(uint64(n)), Seed: seed})
	if err != nil {
		fatalf("%v", err)
	}

	cfg, err := core.ConfigFromCheckpoint(c.Config)
	if err != nil {
		fatalf("%v", err)
	}
	host.Codec, host.CodecBackward = nil, nil
	cfg = host.Apply(cfg)

	runner, err := core.NewRunner(cfg, g)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "swbfs-bench: resuming bfs from root %d at level boundary %d (%s)\n", c.Root, c.Level, path)
	res, err := runner.Resume(c)
	if err != nil {
		var ae *core.AbortError
		if errors.As(err, &ae) {
			fmt.Fprintf(os.Stderr, "swbfs-bench: resumed run ABORTED: %v\n", ae.Cause)
			if ae.CheckpointPath != "" {
				fmt.Fprintf(os.Stderr, "swbfs-bench: checkpoint at level boundary %d written to %s (continue with -resume)\n",
					ae.Checkpoint.Level, ae.CheckpointPath)
			}
			os.Exit(1)
		}
		fatalf("resume failed: %v", err)
	}
	fmt.Printf("resumed bfs: root %d, %d vertices, visited %d, traversed %d edges, %d levels, %.3f GTEPS (modelled)\n",
		c.Root, g.N, res.Visited, res.TraversedEdges, len(res.Levels), res.GTEPS)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: swbfs-bench [-quick|-full] [-seed N] [-roots N] [-format text|csv|json] <table1|fig3|fig5|regbus|relaybw|msgcount|fig11|fig12|strong|table2|headline|ablations|policy|all>")
	fmt.Fprintln(os.Stderr, "       swbfs-bench -resume <ckpt.json> [-seed N]")
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "swbfs-bench: "+format+"\n", args...)
	os.Exit(1)
}
