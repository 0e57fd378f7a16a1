// Command graphgen emits a Graph500 Kronecker edge list, either as text
// ("u<TAB>v" per line) or as the packed little-endian binary format the
// reference implementation uses (two int64 per edge).
//
//	graphgen -scale 20 -seed 7 > edges.txt
//	graphgen -scale 20 -format binary -out edges.bin
//
// A one-line summary (vertices, edges, bytes, elapsed) always goes to
// stderr; at -scale >= 22 (tens of millions of edges and up) periodic
// progress lines report generation and write progress.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"swbfs/internal/graph"
)

// progressScale is the -scale threshold for periodic progress reporting;
// below it runs finish in seconds and progress would be noise.
const progressScale = 22

func main() {
	var (
		scale      = flag.Int("scale", 16, "log2 of the vertex count")
		edgefactor = flag.Int("edgefactor", 16, "edges per vertex")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		format     = flag.String("format", "text", "output format: text | binary")
		out        = flag.String("out", "-", "output path ('-' for stdout)")
		shards     = flag.Int("shards", 1, "parallel generator shards; part of the graph identity (1 reproduces the historical serial stream)")
	)
	flag.Parse()

	start := time.Now()
	cfg := graph.KroneckerConfig{Scale: *scale, EdgeFactor: *edgefactor, Seed: *seed, Shards: *shards}
	verbose := *scale >= progressScale
	if verbose {
		fmt.Fprintf(os.Stderr, "graphgen: generating %d vertices, %d edges (scale %d)...\n",
			cfg.NumVertices(), cfg.NumEdges(), *scale)
	}
	edges, err := graph.GenerateKronecker(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "graphgen: generated %d edges in %s, writing %s...\n",
			len(edges), time.Since(start).Round(time.Millisecond), *format)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("close: %v", err)
			}
		}()
		w = f
	}
	var write func(io.Writer, []graph.Edge) error
	switch *format {
	case "text":
		write = graph.WriteEdgesText
	case "binary":
		write = graph.WriteEdgesBinary
	default:
		fatalf("unknown format %q", *format)
	}

	// Big runs write the edge list in 5 % chunks, one progress line each.
	cw := &countingWriter{w: w}
	step := len(edges) / 20
	progress := verbose && step > 0
	chunk := len(edges)
	if progress {
		chunk = step
	}
	for lo := 0; lo < len(edges); lo += chunk {
		hi := min(lo+chunk, len(edges))
		if err := write(cw, edges[lo:hi]); err != nil {
			fatalf("write: %v", err)
		}
		if progress && hi%step == 0 {
			fmt.Fprintf(os.Stderr, "graphgen: wrote %d/%d edges (%d%%)\n",
				hi, len(edges), hi*100/len(edges))
		}
	}
	fmt.Fprintf(os.Stderr, "graphgen: %d vertices, %d edges, %d bytes written in %s\n",
		cfg.NumVertices(), len(edges), cw.n, time.Since(start).Round(time.Millisecond))
}

// countingWriter tracks bytes written through it for the summary line.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphgen: "+format+"\n", args...)
	os.Exit(1)
}
