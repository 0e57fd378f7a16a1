// Command swbfs-bench regenerates the paper's tables and figures on the
// simulated machine. Each subcommand prints one artifact of
// experiments.All, `all` prints every one in paper order:
//
//	table1 fig3 fig5          machine specification, DMA bandwidth curves
//	regbus relaybw msgcount   Section 4.3 and 4.4 micro-benchmarks
//	fig11 fig12 strong        technique, weak- and strong-scaling sweeps
//	table2 headline           cross-system comparison, full-machine GTEPS
//	ablations policy          design-choice ablations, policy thresholds
//
// Every functional BFS is a Graph500 run whose roots are validated.
// -quick and -full pick each experiment's small or large shape
// (experiments.Size), -format csv|json prints machine-readable tables and
// -format markdown the tables as EXPERIMENTS.md lays them out.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"strings"

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
		roots  = flag.Int("roots", 0, "BFS roots per data point (0 = 2)")
		format = flag.String("format", "text", "output format: text | csv | json | markdown")
	)
	hostFlags := cli.Register()
	flag.Parse()
	args := 1 // the subcommand; -resume takes none
	if hostFlags.Resume != "" {
		args = 0
	}
	write := map[string]func(*experiments.Table, io.Writer) error{
		"text":     func(t *experiments.Table, w io.Writer) error { t.Print(w); return nil },
		"csv":      (*experiments.Table).WriteCSV,
		"json":     (*experiments.Table).WriteJSON,
		"markdown": (*experiments.Table).WriteMarkdown,
	}[*format]
	name := flag.Arg(0)
	var artifacts []experiments.Artifact
	for _, a := range experiments.All {
		if name == "all" || a.ID == name {
			artifacts = append(artifacts, a)
		}
	}
	if flag.NArg() != args || args == 1 && artifacts == nil || *quick && *full || write == nil {
		usage()
	}
	size := experiments.Default
	switch {
	case *quick:
		size = experiments.Quick
	case *full:
		size = experiments.Full
	}
	s := hostFlags.Open("swbfs-bench")
	opts := experiments.Options{Seed: *seed, Roots: *roots, Size: size, Host: s.Host}

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
	} else {
		for _, a := range artifacts {
			t, err := a.Build(opts)
			if err != nil {
				s.Fatalf("%s: %v", a.ID, err)
			}
			if err := write(t, os.Stdout); err != nil {
				s.Fatalf("%s: %v", *format, err)
			}
			if name == "all" {
				fmt.Println()
			}
		}
	}
	s.Close()
}

func usage() {
	ids := make([]string, 0, len(experiments.All)+1)
	for _, a := range experiments.All {
		ids = append(ids, a.ID)
	}
	fmt.Fprintf(os.Stderr, "usage: swbfs-bench [-quick|-full] [-seed N] [-roots N] [-format text|csv|json|markdown] <%s>\n", strings.Join(append(ids, "all"), "|"))
	fmt.Fprintln(os.Stderr, "       swbfs-bench -resume <ckpt.json> [-seed N]")
	os.Exit(2)
}
