package algos

import (
	"fmt"
	"strconv"
	"strings"

	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// Kernel is one entry of the kernel table: a kernel under the name its
// checkpoints carry, and the one way to run or resume it.
type Kernel struct {
	Name string
	// Weighted kernels read wg.Weights; the others run on wg.CSR alone.
	Weighted bool
	// Open prepares the kernel on wg with its canonical argument string
	// (RunOptions.Args; "" for a kernel that takes none) and returns the
	// function that runs it. Open parses args, so malformed arguments are
	// refused before any run starts, and BFS partitions the graph here
	// once, so its runs share the partition and recycle machines. A resume
	// compares the arguments the run records with the checkpoint's, which
	// refuses a non-canonical string.
	Open func(cfg core.Config, wg *graph.WeightedCSR, args string) (RunFunc, error)
}

// RunFunc runs an opened kernel: fresh from root when from is nil, else
// resumed from the checkpoint, whose Root the caller passes. Rootless
// kernels ignore root; betweenness takes its sources from its arguments.
// The result is the kernel's own: *core.Result for BFS, *SSSPResult,
// *DeltaSSSPResult, *WCCResult, *PageRankResult, *KCoreResult or
// *BCResult.
type RunFunc func(root graph.Vertex, from *ckpt.Checkpoint) (any, error)

// Run opens k on wg with args and runs it once, from root or from the
// checkpoint.
func (k Kernel) Run(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, args string, from *ckpt.Checkpoint) (any, error) {
	run, err := k.Open(cfg, wg, args)
	if err != nil {
		return nil, err
	}
	return run(root, from)
}

// Kernels is the kernel table: BFS and every round kernel.
var Kernels = []Kernel{
	{Name: core.KernelBFS, Open: func(cfg core.Config, wg *graph.WeightedCSR, _ string) (RunFunc, error) {
		r, err := core.NewRunner(cfg, wg.CSR)
		if err != nil {
			return nil, err
		}
		return func(root graph.Vertex, from *ckpt.Checkpoint) (any, error) {
			if from == nil {
				return result(r.Run(root))
			}
			return result(r.Resume(from))
		}, nil
	}},
	{Name: "sssp", Weighted: true, Open: func(cfg core.Config, wg *graph.WeightedCSR, _ string) (RunFunc, error) {
		return func(root graph.Vertex, from *ckpt.Checkpoint) (any, error) {
			return result(ssspRun(cfg, wg, root, from))
		}, nil
	}},
	{Name: "delta-sssp", Weighted: true, Open: func(cfg core.Config, wg *graph.WeightedCSR, args string) (RunFunc, error) {
		var delta int64
		if err := scanArgs(args, "delta=%d", &delta); err != nil {
			return nil, err
		}
		return func(root graph.Vertex, from *ckpt.Checkpoint) (any, error) {
			return result(deltaRun(cfg, wg, root, delta, from))
		}, nil
	}},
	{Name: "wcc", Open: func(cfg core.Config, wg *graph.WeightedCSR, _ string) (RunFunc, error) {
		return func(_ graph.Vertex, from *ckpt.Checkpoint) (any, error) {
			return result(wccRun(cfg, wg.CSR, from))
		}, nil
	}},
	{Name: "pagerank", Open: func(cfg core.Config, wg *graph.WeightedCSR, args string) (RunFunc, error) {
		var iterations int
		var damping float64
		if err := scanArgs(args, "iterations=%d damping=%g", &iterations, &damping); err != nil {
			return nil, err
		}
		return func(_ graph.Vertex, from *ckpt.Checkpoint) (any, error) {
			return result(pagerankRun(cfg, wg.CSR, iterations, damping, from))
		}, nil
	}},
	{Name: "kcore", Open: func(cfg core.Config, wg *graph.WeightedCSR, args string) (RunFunc, error) {
		var k int64
		if err := scanArgs(args, "k=%d", &k); err != nil {
			return nil, err
		}
		return func(_ graph.Vertex, from *ckpt.Checkpoint) (any, error) {
			return result(kcoreRun(cfg, wg.CSR, k, from))
		}, nil
	}},
	{Name: "betweenness", Open: func(cfg core.Config, wg *graph.WeightedCSR, args string) (RunFunc, error) {
		sources, err := parseSources(args)
		if err != nil {
			return nil, err
		}
		return func(_ graph.Vertex, from *ckpt.Checkpoint) (any, error) {
			return result(betweennessRun(cfg, wg.CSR, sources, from))
		}, nil
	}},
}

// KernelByName looks a kernel up in the table by the name its checkpoints
// carry.
func KernelByName(name string) (Kernel, error) {
	for _, k := range Kernels {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("algos: unknown kernel %q", name)
}

// result hands a typed result on as the table's untyped one, so a failed
// run returns a nil result rather than a typed nil.
func result[T any](res *T, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return res, nil
}

// scanArgs fills dst from args by format, refusing a string that does not
// fill every value.
func scanArgs(args, format string, dst ...any) error {
	if _, err := fmt.Sscanf(args, format, dst...); err != nil {
		return fmt.Errorf("algos: kernel arguments %q do not read as %q: %v", args, format, err)
	}
	return nil
}

// parseSources reads betweenness's "sources=[3 17]".
func parseSources(args string) ([]graph.Vertex, error) {
	list, ok := strings.CutPrefix(args, "sources=[")
	if ok {
		list, ok = strings.CutSuffix(list, "]")
	}
	if !ok {
		return nil, fmt.Errorf("algos: kernel arguments %q do not read as sources=[...]", args)
	}
	var sources []graph.Vertex
	for _, f := range strings.Fields(list) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("algos: betweenness source %q: %v", f, err)
		}
		sources = append(sources, graph.Vertex(v))
	}
	return sources, nil
}
