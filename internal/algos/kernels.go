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
	// Run executes the kernel on wg with its canonical argument string
	// (RunOptions.Args; "" for a kernel that takes none): fresh from root
	// when from is nil, else resumed from the checkpoint, whose Root and
	// Args the caller passes. Rootless kernels ignore root; betweenness
	// takes its sources from args. Run parses args and nothing more: a
	// resume compares the arguments the run records with the checkpoint's,
	// which refuses a non-canonical string. The result is the kernel's own:
	// *core.Result for BFS, *SSSPResult, *DeltaSSSPResult, *WCCResult,
	// *PageRankResult, *KCoreResult or *BCResult.
	Run func(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, args string, from *ckpt.Checkpoint) (any, error)
}

// Kernels is the kernel table: BFS and every round kernel.
var Kernels = []Kernel{
	{Name: core.KernelBFS, Run: func(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, _ string, from *ckpt.Checkpoint) (any, error) {
		r, err := core.NewRunner(cfg, wg.CSR)
		if err != nil {
			return nil, err
		}
		if from == nil {
			return result(r.Run(root))
		}
		return result(r.Resume(from))
	}},
	{Name: "sssp", Weighted: true, Run: func(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, _ string, from *ckpt.Checkpoint) (any, error) {
		return result(ssspRun(cfg, wg, root, from))
	}},
	{Name: "delta-sssp", Weighted: true, Run: func(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, args string, from *ckpt.Checkpoint) (any, error) {
		var delta int64
		if err := scanArgs(args, "delta=%d", &delta); err != nil {
			return nil, err
		}
		return result(deltaRun(cfg, wg, root, delta, from))
	}},
	{Name: "wcc", Run: func(cfg core.Config, wg *graph.WeightedCSR, _ graph.Vertex, _ string, from *ckpt.Checkpoint) (any, error) {
		return result(wccRun(cfg, wg.CSR, from))
	}},
	{Name: "pagerank", Run: func(cfg core.Config, wg *graph.WeightedCSR, _ graph.Vertex, args string, from *ckpt.Checkpoint) (any, error) {
		var iterations int
		var damping float64
		if err := scanArgs(args, "iterations=%d damping=%g", &iterations, &damping); err != nil {
			return nil, err
		}
		return result(pagerankRun(cfg, wg.CSR, iterations, damping, from))
	}},
	{Name: "kcore", Run: func(cfg core.Config, wg *graph.WeightedCSR, _ graph.Vertex, args string, from *ckpt.Checkpoint) (any, error) {
		var k int64
		if err := scanArgs(args, "k=%d", &k); err != nil {
			return nil, err
		}
		return result(kcoreRun(cfg, wg.CSR, k, from))
	}},
	{Name: "betweenness", Run: func(cfg core.Config, wg *graph.WeightedCSR, _ graph.Vertex, args string, from *ckpt.Checkpoint) (any, error) {
		sources, err := parseSources(args)
		if err != nil {
			return nil, err
		}
		return result(betweennessRun(cfg, wg.CSR, sources, from))
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
