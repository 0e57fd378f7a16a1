package algos

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

// ckptMachine is the kernel-parity machine: small enough that every kernel
// finishes in milliseconds, wide enough to exercise both transports'
// batching.
func ckptMachine(transport core.Transport) core.Config {
	cfg := machine(4, transport)
	cfg.Workers = 2
	return cfg
}

// ckptArgs are the arguments the checkpoint tests run each kernel of the
// table with. K-core at k=4 peels in cascades over several rounds, so a
// mid-run boundary exists for the resume leg.
func ckptArgs(root graph.Vertex) map[string]string {
	return map[string]string{
		"bfs":         "",
		"sssp":        "",
		"delta-sssp":  "delta=16",
		"wcc":         "",
		"pagerank":    "iterations=5 damping=0.85",
		"kcore":       "k=4",
		"betweenness": fmt.Sprintf("sources=[%d]", root),
	}
}

// resume finishes a checkpointed run the way the CLIs do: the kernel, root
// and arguments all come from the checkpoint, through the table.
func resume(cfg core.Config, wg *graph.WeightedCSR, c *ckpt.Checkpoint) (any, error) {
	k, err := KernelByName(c.Kernel)
	if err != nil {
		return nil, err
	}
	return k.Run(cfg, wg, graph.Vertex(c.Root), c.Args, c)
}

// TestKernelCheckpointResumeParity runs every kernel of the table three
// ways — plain, checkpointing every second boundary to a file, and resumed
// from the written mid-run file at another host width — and demands
// bitwise-identical results (reflect.DeepEqual covers the float slices
// exactly).
func TestKernelCheckpointResumeParity(t *testing.T) {
	g := kron(t, 8, 21)
	wg := testutil.Weighted(t, g, 9)
	root := testutil.FirstConnected(t, g)
	args := ckptArgs(root)
	for _, k := range Kernels {
		for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
			t.Run(k.Name+"/"+transport.String(), func(t *testing.T) {
				kargs, ok := args[k.Name]
				if !ok {
					t.Fatalf("no arguments for kernel %s", k.Name)
				}
				base, err := k.Run(ckptMachine(transport), wg, root, kargs, nil)
				if err != nil {
					t.Fatal(err)
				}

				path := filepath.Join(t.TempDir(), "kernel.ckpt.json")
				cfg := ckptMachine(transport)
				cfg.CheckpointEvery = 2
				cfg.CheckpointPath = path
				withCk, err := k.Run(cfg, wg, root, kargs, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base, withCk) {
					t.Fatalf("checkpointing on changed the result:\n  off: %+v\n  on:  %+v", base, withCk)
				}

				c, err := ckpt.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				rcfg, err := core.ConfigFromCheckpoint(c.Config)
				if err != nil {
					t.Fatal(err)
				}
				rcfg.Workers = 4 // resume at a different host width
				resumed, err := resume(rcfg, wg, c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base, resumed) {
					t.Fatalf("resume from round %d differs from uninterrupted run:\n  base:    %+v\n  resumed: %+v",
						c.Level, base, resumed)
				}
			})
		}
	}
}

// TestKernelResumeRejects covers the refuse-to-load paths of a resume
// through the table.
func TestKernelResumeRejects(t *testing.T) {
	g := kron(t, 8, 21)
	wg := testutil.Weighted(t, g, 9)
	root := testutil.FirstConnected(t, g)
	direct := ckptMachine(core.TransportDirect)

	c := healthyCheckpoint(t, direct, wg, root, "wcc", "")
	if _, err := resume(ckptMachine(core.TransportRelay), wg, c); err == nil {
		t.Fatal("wrong-transport (fingerprint) checkpoint accepted")
	}
	kcore, err := KernelByName("kcore")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kcore.Run(direct, wg, root, "k=2", c); err == nil {
		t.Fatal("wrong-kernel checkpoint accepted")
	}

	// A checkpoint pins its kernel's arguments and its graph: each row takes
	// a checkpoint, then resumes it on the same machine, kernel and root
	// with other arguments, other weights or another graph of the same
	// vertex and edge counts.
	relabelled := &graph.WeightedCSR{CSR: testutil.Relabelled(t, g)}
	for _, row := range []struct {
		name, kernel, args string
		resumeArgs         string
		resumeOn           *graph.WeightedCSR // nil: the graph the checkpoint was taken on
	}{
		{name: "kcore k=4 resumed with k=2", kernel: "kcore", args: "k=4", resumeArgs: "k=2"},
		{
			name: "pagerank 5 iterations resumed with 9 at damping 0.5", kernel: "pagerank",
			args: "iterations=5 damping=0.85", resumeArgs: "iterations=9 damping=0.5",
		},
		{name: "delta-sssp delta=16 resumed with delta=3", kernel: "delta-sssp", args: "delta=16", resumeArgs: "delta=3"},
		{
			name: "betweenness one source resumed with two", kernel: "betweenness",
			args: fmt.Sprintf("sources=[%d]", root), resumeArgs: fmt.Sprintf("sources=[%d %d]", root, root+1),
		},
		{name: "sssp weights seed 9 resumed with seed 10", kernel: "sssp", resumeOn: testutil.Weighted(t, g, 10)},
		{name: "wcc resumed onto a relabelled graph", kernel: "wcc", resumeOn: relabelled},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := healthyCheckpoint(t, direct, wg, root, row.kernel, row.args)
			k, err := KernelByName(row.kernel)
			if err != nil {
				t.Fatal(err)
			}
			on := wg
			if row.resumeOn != nil {
				on = row.resumeOn
			}
			_, err = k.Run(direct, on, root, row.resumeArgs, c)
			if err == nil {
				t.Fatal("checkpoint resumed with different kernel arguments or onto another graph")
			}
			var mismatch *core.GraphDigestError
			if row.resumeOn != nil && !errors.As(err, &mismatch) {
				t.Fatalf("resume onto another graph refused with %v, want a *core.GraphDigestError", err)
			}
		})
	}
}
