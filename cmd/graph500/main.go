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
	"flag"
	"fmt"
	"os"

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
		kernel     = flag.String("kernel", "bfs", "benchmark kernel: bfs | sssp (Graph500 v3 second kernel)")
		delta      = flag.Int64("delta", 0, "sssp kernel: delta-stepping bucket width (0 = Bellman-Ford)")
		trace      = flag.String("trace", "", "write per-root/per-level statistics as JSON lines to this file")
	)
	hostFlags := cli.Register()
	flag.Parse()
	s := hostFlags.Open("graph500")

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
			edges, n, err := loadEdges(*input, *format, *vertices)
			if err != nil {
				return nil, fmt.Errorf("loading %s: %w", *input, err)
			}
			return graph.BuildCSR(n, edges)
		}, *seed, !*noValidate)
		validated := "ok"
		switch {
		case *noValidate:
			validated = "skipped"
		case !r.Validated:
			validated = "none (Graph500 defines no rule for " + r.Checkpoint.Kernel + ")"
		}
		c := r.Checkpoint
		res, bfs := r.Result.(*core.Result)
		if bfs {
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
		if bfs {
			fmt.Printf("visited:              %d\n", res.Visited)
			fmt.Printf("traversed_edges:      %d\n", res.TraversedEdges)
			fmt.Printf("levels:               %d\n", len(res.Levels))
			fmt.Printf("bfs_time:             %.6f s (modelled)\n", res.Time)
			fmt.Printf("GTEPS:                %.4f\n", res.GTEPS)
		}
		fmt.Printf("validation:           %s\n", validated)
		s.Close()
		return
	}
	machine = s.Apply(machine)

	if *kernel == "sssp" {
		if *input != "" {
			s.Fatalf("-kernel sssp runs on its own Kronecker graph and cannot read -input %s; drop -input or use -kernel bfs", *input)
		}
		report, err := graph500.RunSSSP(graph500.SSSPBenchConfig{
			Scale:      *scale,
			EdgeFactor: *edgefactor,
			Seed:       *seed,
			Roots:      *roots,
			Delta:      *delta,
			Machine:    machine,
		})
		if err != nil {
			s.Exit("sssp benchmark failed", err)
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
		s.Close()
		return
	}
	if *kernel != "bfs" {
		s.Fatalf("unknown kernel %q (want bfs or sssp)", *kernel)
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
			s.Fatalf("loading %s: %v", *input, err)
		}
		cfg.Edges, cfg.NumVertices = edges, n
	}

	report, err := graph500.Run(cfg)
	if err != nil {
		s.Exit("benchmark failed", err)
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
