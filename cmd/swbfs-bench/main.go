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
	"flag"
	"fmt"
	"math/bits"
	"os"

	"swbfs/cmd/internal/cli"
	"swbfs/internal/ckpt"
	"swbfs/internal/experiments"
	"swbfs/internal/graph"
)

func main() {
	var (
		quick  = flag.Bool("quick", false, "small sweeps (seconds)")
		full   = flag.Bool("full", false, "large sweeps (minutes; up to 256 functional nodes)")
		seed   = flag.Int64("seed", 20160624, "deterministic seed")
		roots  = flag.Int("roots", 0, "BFS roots per data point (0 = per-experiment default)")
		format = flag.String("format", "text", "output format: text | csv | json")
	)
	hostFlags := cli.Register()
	flag.Parse()
	args := 1 // the subcommand; -resume takes none
	if hostFlags.Resume != "" {
		args = 0
	}
	if flag.NArg() != args {
		usage()
	}
	s := hostFlags.Open("swbfs-bench")
	host := s.Host

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
				s.Fatalf("csv: %v", err)
			}
		case "json":
			if err := t.WriteJSON(os.Stdout); err != nil {
				s.Fatalf("json: %v", err)
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
				s.Fatalf("regbus: %v", err)
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
				s.Fatalf("ablations: %v", err)
			}
			emit(t)
		case "policy":
			polOpts := experiments.PolicySweepOptions{Seed: *seed, Roots: *roots, Host: host}
			if *quick {
				polOpts.Scale = 12
			}
			t, err := experiments.PolicySweep(polOpts)
			if err != nil {
				s.Fatalf("policy: %v", err)
			}
			emit(t)
		case "headline":
			m, proj := experiments.Headline(host, headlineLog, *roots, *seed)
			if m.Crashed() {
				s.Fatalf("headline measurement failed: %v", m.Err)
			}
			fmt.Printf("functional: %d nodes, %d vtx/node, %.3f GTEPS (measured)\n",
				m.Nodes, m.PerNodeVertices, m.GTEPS)
			if proj.Crashed() {
				s.Fatalf("projection failed: %v", proj.Err)
			}
			fmt.Printf("projected:  %d nodes, %.1f GTEPS (modelled)\n", proj.Nodes, proj.GTEPS)
			fmt.Printf("paper:      40,768 nodes, 23755.7 GTEPS (measured on TaihuLight)\n")
		default:
			usage()
		}
	}

	if hostFlags.Resume != "" {
		// The Kronecker graph is rebuilt from -seed and the checkpoint's
		// vertex count, a weighted kernel's weights from -seed.
		r := s.Resume(func(mc ckpt.MachineConfig) (*graph.CSR, error) {
			n := mc.GraphN
			if n <= 0 || n&(n-1) != 0 {
				return nil, fmt.Errorf("checkpoint vertex count %d is not a power of two — not a swbfs-bench Kronecker run", n)
			}
			return graph.BuildKronecker(graph.KroneckerConfig{Scale: bits.TrailingZeros64(uint64(n)), Seed: *seed})
		}, *seed, true)
		validation := "validation ok"
		if r.Run == nil {
			validation = "no Graph500 rule to validate"
		}
		c := r.Checkpoint
		if rr := r.Run; rr != nil {
			fmt.Printf("resumed %s: root %d, %d vertices, visited %d, traversed %d edges, %d levels, %.3f GTEPS (modelled), %s\n",
				c.Kernel, c.Root, r.Graph.N, rr.Visited, rr.TraversedEdges, rr.Levels, rr.TEPS/1e9, validation)
		} else {
			fmt.Printf("resumed %s: root %d, args %q, %d vertices, %s\n", c.Kernel, c.Root, c.Args, r.Graph.N, validation)
		}
	} else if flag.Arg(0) == "all" {
		for _, name := range []string{
			"table1", "fig3", "fig5", "regbus", "relaybw", "msgcount",
			"fig11", "fig12", "strong", "table2", "headline", "ablations", "policy",
		} {
			run(name)
			fmt.Println()
		}
	} else {
		run(flag.Arg(0))
	}
	s.Close()
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: swbfs-bench [-quick|-full] [-seed N] [-roots N] [-format text|csv|json] <table1|fig3|fig5|regbus|relaybw|msgcount|fig11|fig12|strong|table2|headline|ablations|policy|all>")
	fmt.Fprintln(os.Stderr, "       swbfs-bench -resume <ckpt.json> [-seed N]")
	os.Exit(2)
}
