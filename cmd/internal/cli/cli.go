// Package cli is the host-side seam cmd/graph500 and cmd/swbfs-bench
// share: the host flags both register, the core.Host they stamp onto every
// run, the observer and telemetry server, the profile around the whole
// command, the checkpoint resume, the abort report, and the closing emit of
// metrics and traces.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swbfs/internal/algos"
	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/obs"
)

// Flags are the host-side command-line flags.
type Flags struct {
	// Resume is the -resume checkpoint path ("" = no resume).
	Resume string

	workers               int
	codec, codecBackward  string
	flightDump            string
	checkpointEvery       int
	checkpoint            string
	chaosSeed             int64
	chaosPlan             string
	levelTimeout          time.Duration
	stragglerFactor       float64
	metrics               bool
	traceOut              string
	serve                 string
	cpuprofile, execTrace string
}

// Register adds the host flags to the command line; call it before
// flag.Parse.
func Register() *Flags {
	f := new(Flags)
	flag.IntVar(&f.workers, "workers", 0, "host worker goroutines per simulated node, the CPE-cluster stand-in (0 = GOMAXPROCS/nodes, 1 = serial; results are identical for every width)")
	flag.StringVar(&f.codec, "codec", "", "wire codec for every channel: raw | adaptive (empty = raw; see docs/ARCHITECTURE.md)")
	flag.StringVar(&f.codecBackward, "codec-backward", "", "wire codec override for the backward (bottom-up) channel only: raw | adaptive (empty = no override)")
	flag.StringVar(&f.flightDump, "flight-dump", "", "write the flight-recorder post-mortem of an aborted run to this file (default: <-trace-out>.flight.json when -trace-out is set; render with inspect)")
	flag.IntVar(&f.checkpointEvery, "checkpoint-every", 0, "write a resumable machine checkpoint every N completed levels (BFS) or rounds (other kernels) of each run (0 = off; see docs/CHAOS.md)")
	flag.StringVar(&f.checkpoint, "checkpoint", "", "checkpoint file path (default: <-flight-dump>.ckpt.json on abort when -checkpoint-every is set)")
	flag.StringVar(&f.Resume, "resume", "", "resume an interrupted run of any kernel from this checkpoint file and print its result, validated where Graph500 defines a rule (see docs/CHAOS.md)")
	flag.Int64Var(&f.chaosSeed, "chaos-seed", 0, "inject a seeded random fault plan into every run (0 = off; see docs/CHAOS.md)")
	flag.StringVar(&f.chaosPlan, "chaos-plan", "", "inject an explicit fault plan, comma-separated fault specs like kill@2:l1:data/forward:0 (wins over -chaos-seed; see docs/CHAOS.md)")
	flag.DurationVar(&f.levelTimeout, "level-timeout", 0, "abort a run if no level or round completes within this duration (0 = no watchdog)")
	flag.Float64Var(&f.stragglerFactor, "straggler-factor", 0, "flag nodes whose per-level module host time exceeds this multiple of the fleet mean (0 = off)")
	flag.BoolVar(&f.metrics, "metrics", false, "print the unified metrics registry after the command (see docs/OBSERVABILITY.md)")
	flag.StringVar(&f.traceOut, "trace-out", "", "write the structured per-level trace of every run (one RunTrace per root) as JSON to this file; inspect renders it as a Chrome trace")
	flag.StringVar(&f.serve, "serve", "", "serve live telemetry on this address while the command runs: /metrics (Prometheus), /traces, /events (SSE), /debug/pprof")
	flag.StringVar(&f.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the whole command to this file")
	flag.StringVar(&f.execTrace, "exec-trace", "", "write a runtime/trace execution trace of the whole command to this file")
	return f
}

// Session is one command's host side, opened from the parsed flags.
type Session struct {
	// Host is what every run of the command is stamped with.
	Host core.Host

	prog        string
	f           *Flags
	server      *obs.Server
	stopProfile func() error
}

// Open builds the session: the Host; an observer when any output needs
// one, with a single flight recorder shared by every run so /debug/flight
// and a post-mortem see the whole command; the telemetry server; and the
// profile, which covers the command until Close. prog prefixes messages.
func (f *Flags) Open(prog string) *Session {
	s := &Session{prog: prog, f: f}
	h := core.Host{
		Workers:         f.workers,
		ChaosSeed:       f.chaosSeed,
		LevelTimeout:    f.levelTimeout,
		StragglerFactor: f.stragglerFactor,
		FlightDump:      f.flightDump,
		CheckpointEvery: f.checkpointEvery,
		CheckpointPath:  f.checkpoint,
	}
	var err error
	if h.Codec, err = comm.CodecByName(f.codec); err != nil {
		s.Fatalf("%v", err)
	}
	if h.CodecBackward, err = comm.CodecByName(f.codecBackward); err != nil {
		s.Fatalf("%v", err)
	}
	if h.FlightDump == "" && f.traceOut != "" {
		h.FlightDump = f.traceOut + ".flight.json"
	}
	if f.chaosPlan != "" {
		plan, err := chaos.ParsePlan(f.chaosPlan)
		if err != nil {
			s.Fatalf("%v", err)
		}
		h.ChaosPlan = &plan
	}
	if f.metrics || f.traceOut != "" || f.serve != "" {
		h.Obs = obs.New()
		h.Obs.Flight = obs.NewFlightRecorder(0)
	}
	if f.serve != "" {
		h.Obs.Progress = obs.NewProgressBroker()
		if s.server, err = obs.Serve(f.serve, h.Obs); err != nil {
			s.Fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "%s: telemetry on %s (/metrics /traces /events /debug/pprof)\n", prog, s.server.URL())
	}
	s.Host = h
	if s.stopProfile, err = obs.StartProfile(obs.ProfileConfig{CPUProfile: f.cpuprofile, ExecTrace: f.execTrace}); err != nil {
		s.Fatalf("%v", err)
	}
	return s
}

// Apply stamps the Host onto cfg (set cfg.Nodes first) and logs the fault
// plan -chaos-seed drew for it.
func (s *Session) Apply(cfg core.Config) core.Config {
	return s.logPlan(s.Host.Apply(cfg))
}

func (s *Session) logPlan(cfg core.Config) core.Config {
	if s.Host.ChaosPlan == nil && s.Host.ChaosSeed != 0 {
		fmt.Fprintf(os.Stderr, "%s: chaos plan from seed %d: %s\n", s.prog, s.Host.ChaosSeed, cfg.Chaos)
	}
	return cfg
}

// Resumed is a run finished from a checkpoint.
type Resumed struct {
	Checkpoint *ckpt.Checkpoint
	// Graph is the rebuilt graph, with the rebuilt weights of a weighted
	// kernel (Weights is nil otherwise).
	Graph  *graph.WeightedCSR
	Config core.Config
	// Run is the resumed run's row (graph500.Measure), validated when
	// Resume was asked to; nil for a kernel Graph500 defines no rule for.
	Run *graph500.RootResult
}

// Resume finishes the interrupted run of the -resume checkpoint, whatever
// its kernel, through the algos kernel table. build rebuilds its graph, and
// a weighted kernel's weights are drawn from seed as graph500.Run draws
// them; the checkpoint's graph digest refuses a mismatch of either. The
// machine configuration, codecs included, comes from the checkpoint and
// only the host knobs from the command line, so the result is bitwise
// identical to the uninterrupted run's. A result Graph500 defines a rule
// for is measured, and validated when validate is set. Any failure ends
// the command.
func (s *Session) Resume(build func(ckpt.MachineConfig) (*graph.CSR, error), seed int64, validate bool) Resumed {
	c, err := ckpt.ReadFile(s.f.Resume)
	if err != nil {
		s.Fatalf("%v", err)
	}
	k, err := algos.KernelByName(c.Kernel)
	if err != nil {
		s.Fatalf("checkpoint %s: %v", s.f.Resume, err)
	}
	g, err := build(c.Config)
	if err != nil {
		s.Fatalf("%v", err)
	}
	wg := &graph.WeightedCSR{CSR: g}
	if k.Weighted {
		if wg, err = graph500.SSSPWeights(g, seed); err != nil {
			s.Fatalf("%v", err)
		}
	}
	cfg, err := core.ConfigFromCheckpoint(c.Config)
	if err != nil {
		s.Fatalf("%v", err)
	}
	h := s.Host
	h.Codec, h.CodecBackward = nil, nil // the checkpoint's own are fingerprinted
	cfg = s.logPlan(h.Apply(cfg))

	fmt.Fprintf(os.Stderr, "%s: resuming %s from root %d at boundary %d (%s)\n", s.prog, c.Kernel, c.Root, c.Level, s.f.Resume)
	root := graph.Vertex(c.Root)
	res, err := k.Run(cfg, wg, root, c.Args, c)
	if err != nil {
		s.Exit("resume failed", err)
	}
	r := Resumed{Checkpoint: c, Graph: wg, Config: cfg}
	if graph500.HasRule(k.Name) {
		rr, err := graph500.Measure(wg, root, res, validate)
		if err != nil {
			s.Fatalf("resumed %s: %v", c.Kernel, err)
		}
		r.Run = &rr
	}
	return r
}

// Exit ends the command on a failed run: an aborted one (core.AbortError)
// with its partial report and status 1, anything else as a fatal error
// under what.
func (s *Session) Exit(what string, err error) {
	var ae *core.AbortError
	if !errors.As(err, &ae) {
		s.Fatalf("%s: %v", what, err)
	}
	fmt.Fprintf(os.Stderr, "%s: run from root %d ABORTED: %v\n", s.prog, ae.Root, ae.Cause)
	fmt.Fprintf(os.Stderr, "%s: partial result: %d completed levels\n", s.prog, len(ae.CompletedLevels))
	graph500.PrintLevels(os.Stderr, ae.CompletedLevels)
	if ae.FlightPath != "" {
		fmt.Fprintf(os.Stderr, "%s: flight-recorder post-mortem written to %s (render with inspect)\n", s.prog, ae.FlightPath)
	} else if ae.FlightDump != nil {
		fmt.Fprintf(os.Stderr, "%s: flight-recorder post-mortem captured %d event(s); pass -flight-dump to write it to a file\n",
			s.prog, len(ae.FlightDump.Events))
	}
	if ae.CheckpointPath != "" {
		fmt.Fprintf(os.Stderr, "%s: checkpoint at level boundary %d written to %s (continue with -resume)\n",
			s.prog, ae.Checkpoint.Level, ae.CheckpointPath)
	} else if ae.Checkpoint != nil {
		fmt.Fprintf(os.Stderr, "%s: checkpoint at level boundary %d captured in memory; pass -checkpoint or -flight-dump to write it to a file\n",
			s.prog, ae.Checkpoint.Level)
	}
	s.stop()
	os.Exit(1)
}

// Fatalf stops the profile, prints the message and exits with status 1.
func (s *Session) Fatalf(format string, args ...any) {
	s.stop()
	fmt.Fprintf(os.Stderr, s.prog+": "+format+"\n", args...)
	os.Exit(1)
}

// Close ends the command: it checks that every recorded run's books
// balance, prints the metrics table, writes the RunTrace dump, stops the
// profile and, with -serve, keeps the telemetry server up until Ctrl-C.
func (s *Session) Close() {
	if o := s.Host.Obs; o != nil {
		for _, run := range o.Trace.Runs() {
			if err := run.Reconcile(); err != nil {
				s.Fatalf("trace for root %d does not reconcile: %v", run.Root, err)
			}
		}
		if s.f.metrics {
			fmt.Println()
			o.Metrics.WriteTable(os.Stdout)
		}
		if s.f.traceOut != "" {
			f, err := os.Create(s.f.traceOut)
			if err == nil {
				err = o.Trace.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				s.Fatalf("writing trace: %v", err)
			}
		}
	}
	s.stop()
	if s.server != nil {
		fmt.Fprintf(os.Stderr, "%s: done; telemetry still on %s — Ctrl-C to exit\n", s.prog, s.server.URL())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		s.server.Close()
	}
}

// stop ends the profile, once.
func (s *Session) stop() {
	if s.stopProfile == nil {
		return
	}
	if err := s.stopProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: stopping profile: %v\n", s.prog, err)
	}
	s.stopProfile = nil
}
