// Command graph500 runs the full Graph500 benchmark on the simulated
// Sunway TaihuLight machine: Kronecker generation (or an edge-list file),
// graph construction, 64 rooted BFS or SSSP runs on the configured
// machine, validation, and harmonic-mean TEPS reporting.
//
// Example:
//
//	graph500 -scale 18 -nodes 64 -transport relay -engine cpe
//	graph500 -kernel sssp -delta 32 -scale 14 -nodes 16
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"swbfs/cmd/internal/cli"
	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/perf"
)

func main() {
	var (
		scale      = flag.Int("scale", 16, "log2 of the vertex count")
		edgefactor = flag.Int("edgefactor", 16, "edges per vertex")
		nodes      = flag.Int("nodes", 16, "simulated compute nodes")
		superSize  = flag.Int("super", 16, "nodes per super node (fat-tree scaling)")
		roots      = flag.Int("roots", 64, "number of search roots (Graph500 uses 64)")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		transport  = flag.String("transport", "relay", "messaging scheme: direct | relay")
		engine     = flag.String("engine", "cpe", "module processing: mpe | cpe")
		noOpt      = flag.Bool("no-direction-opt", false, "disable the hybrid top-down/bottom-up policy")
		noHubs     = flag.Bool("no-hub-prefetch", false, "disable degree-aware hub prefetching")
		noValidate = flag.Bool("skip-validation", false, "skip result validation (timing sweeps only)")
		input      = flag.String("input", "", "edge-list file to benchmark instead of generating, with either kernel (see -format; sssp draws its weights from -seed)")
		format     = flag.String("format", "text", "-input format: text | binary")
		vertices   = flag.Int64("vertices", 0, "vertex count for -input (0 = max vertex ID + 1)")
		verbose    = flag.Bool("verbose", false, "print per-root and per-level (per-round for sssp) detail")
		kernel     = flag.String("kernel", "bfs", "benchmark kernel: bfs | sssp (Graph500 v3 second kernel; Bellman-Ford, or delta-stepping with -delta)")
		delta      = flag.Int64("delta", 0, "-kernel sssp only: delta-stepping bucket width (0 = Bellman-Ford)")
		trace      = flag.String("trace", "", "write per-root/per-level statistics as JSON lines to this file")
	)
	hostFlags := cli.Register()
	flag.Parse()
	s := hostFlags.Open("graph500")

	// A flag only some runs read is refused when set for a run that would
	// ignore it: the SSSP round driver reads neither BFS switch.
	readBy := map[string]string{
		"delta":            "-kernel sssp",
		"no-direction-opt": "-kernel bfs",
		"no-hub-prefetch":  "-kernel bfs",
		"format":           "-input",
		"vertices":         "-input",
	}
	reads := map[string]bool{"-kernel sssp": *kernel == "sssp", "-kernel bfs": *kernel == "bfs", "-input": *input != ""}
	flag.Visit(func(f *flag.Flag) {
		if who, ok := readBy[f.Name]; ok && !reads[who] {
			s.Fatalf("-%s is read only with %s", f.Name, who)
		}
	})

	machine := core.Config{
		Nodes:              *nodes,
		SuperNodeSize:      *superSize,
		DirectionOptimized: !*noOpt,
		HubPrefetch:        !*noHubs,
		SmallMessageMPE:    true,
	}
	switch *transport {
	case "direct":
		machine.Transport = core.TransportDirect
	case "relay":
		machine.Transport = core.TransportRelay
	default:
		s.Fatalf("unknown transport %q (want direct or relay)", *transport)
	}
	switch *engine {
	case "mpe":
		machine.Engine = perf.EngineMPE
	case "cpe":
		machine.Engine = perf.EngineCPE
	default:
		s.Fatalf("unknown engine %q (want mpe or cpe)", *engine)
	}

	if hostFlags.Resume != "" {
		// The graph (and a weighted kernel's weights) is rebuilt from the
		// same generator flags; the checkpoint's digest rejects a
		// mismatched one.
		r := s.Resume(func(ckpt.MachineConfig) (*graph.CSR, error) {
			if *input == "" {
				return graph.BuildKronecker(graph.KroneckerConfig{Scale: *scale, EdgeFactor: *edgefactor, Seed: *seed})
			}
			return loadGraph(*input, *format, *vertices)
		}, *seed, !*noValidate)
		validated := "ok"
		switch {
		case *noValidate:
			validated = "skipped"
		case r.Run == nil:
			validated = "none (Graph500 defines no rule for " + r.Checkpoint.Kernel + ")"
		}
		c := r.Checkpoint
		if c.Kernel == core.KernelBFS {
			fmt.Printf("KERNEL:               bfs (resumed from level %d)\n", c.Level)
		} else {
			fmt.Printf("KERNEL:               %s (resumed from round %d)\n", c.Kernel, c.Level)
			if c.Args != "" {
				fmt.Printf("args:                 %s\n", c.Args)
			}
		}
		fmt.Printf("root:                 %d\n", c.Root)
		fmt.Printf("num_vertices:         %d\n", r.Graph.N)
		fmt.Printf("num_undirected_edges: %d\n", r.Graph.NumEdges()/2)
		fmt.Printf("machine:              %s, %d nodes\n", r.Config.Name(), r.Config.Nodes)
		if rr := r.Run; rr != nil {
			fmt.Printf("visited:              %d\n", rr.Visited)
			fmt.Printf("traversed_edges:      %d\n", rr.TraversedEdges)
			fmt.Printf("levels:               %d\n", rr.Levels)
			fmt.Printf("%-22s%.6f s (modelled)\n", c.Kernel+"_time:", rr.Time)
			fmt.Printf("GTEPS:                %.4f\n", rr.TEPS/1e9)
		}
		fmt.Printf("validation:           %s\n", validated)
		s.Close()
		return
	}
	machine = s.Apply(machine)

	cfg := graph500.BenchConfig{
		Kernel:         *kernel,
		Scale:          *scale,
		EdgeFactor:     *edgefactor,
		Seed:           *seed,
		Roots:          *roots,
		SkipValidation: *noValidate,
		KeepLevels:     *verbose || *trace != "",
		Machine:        machine,
	}
	if *delta != 0 {
		cfg.Kernel, cfg.Args = "delta-sssp", fmt.Sprintf("delta=%d", *delta)
	}
	var loaded time.Duration
	if *input != "" {
		start := time.Now()
		g, err := loadGraph(*input, *format, *vertices)
		if err != nil {
			s.Fatalf("%v", err)
		}
		cfg.Graph, loaded = g, time.Since(start)
	}

	report, err := graph500.Run(cfg)
	if err != nil {
		s.Exit("benchmark failed", err)
	}
	if cfg.Graph != nil {
		report.ConstructionSeconds = loaded.Seconds() // reading the edge list included
	}
	if *verbose {
		report.PrintDetail(os.Stdout)
	} else {
		report.Print(os.Stdout)
	}
	if *trace != "" {
		if err := writeTrace(*trace, report); err != nil {
			s.Fatalf("writing trace: %v", err)
		}
	}
	s.Close()
}

// writeTrace dumps one JSON object per kernel run (with its per-level
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

// loadGraph reads the edge list of -input and builds its CSR, inferring
// the vertex count when not given: the graph of a benchmark and of a resume
// alike.
func loadGraph(path, format string, vertices int64) (*graph.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	defer f.Close()
	var edges []graph.Edge
	switch format {
	case "text":
		edges, err = graph.ReadEdgesText(f)
	case "binary":
		edges, err = graph.ReadEdgesBinary(f)
	default:
		return nil, fmt.Errorf("loading %s: unknown format %q", path, format)
	}
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
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
	return graph.BuildCSR(vertices, edges)
}
