package algos

import (
	"path/filepath"
	"reflect"
	"testing"

	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// ckptMachine is the kernel-parity machine: small enough that every kernel
// finishes in milliseconds, wide enough to exercise both transports'
// batching.
func ckptMachine(transport core.Transport) core.Config {
	cfg := machine(4, transport)
	cfg.Workers = 2
	return cfg
}

// runKernelCkpt runs one kernel three ways — plain, checkpointing every
// boundary to path, and resumed from the written mid-run file — and
// demands bitwise-identical results (reflect.DeepEqual covers the float
// slices exactly).
func runKernelCkpt(t *testing.T, name string, run func(cfg core.Config, from *ckpt.Checkpoint) (any, error)) {
	t.Helper()
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(name+"/"+transport.String(), func(t *testing.T) {
			base, err := run(ckptMachine(transport), nil)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "kernel.ckpt.json")
			cfg := ckptMachine(transport)
			cfg.CheckpointEvery = 2
			cfg.CheckpointPath = path
			withCk, err := run(cfg, nil)
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
			resumed, err := run(rcfg, c)
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

func TestKernelCheckpointResumeParity(t *testing.T) {
	g := kron(t, 8, 21)
	wg := weighted(t, g, 9)
	root := firstConnected(t, g)

	runKernelCkpt(t, "sssp", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		if from == nil {
			return SSSP(cfg, wg, root)
		}
		return ResumeSSSP(cfg, wg, root, from)
	})
	runKernelCkpt(t, "wcc", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		if from == nil {
			return WCC(cfg, g)
		}
		return ResumeWCC(cfg, g, from)
	})
	runKernelCkpt(t, "pagerank", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		if from == nil {
			return PageRank(cfg, g, 5, 0)
		}
		return ResumePageRank(cfg, g, 5, 0, from)
	})
	runKernelCkpt(t, "kcore", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		// k=4 peels in cascades over several rounds, so a mid-run boundary
		// exists for the resume leg.
		if from == nil {
			return KCore(cfg, g, 4)
		}
		return ResumeKCore(cfg, g, 4, from)
	})
	runKernelCkpt(t, "delta-sssp", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		if from == nil {
			return DeltaSSSP(cfg, wg, root, 16)
		}
		return ResumeDeltaSSSP(cfg, wg, root, 16, from)
	})
	runKernelCkpt(t, "betweenness", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		if from == nil {
			return Betweenness(cfg, g, []graph.Vertex{root})
		}
		return ResumeBetweenness(cfg, g, []graph.Vertex{root}, from)
	})
}

// firstConnected picks the lowest vertex with a neighbour, so rooted
// kernels traverse more than one round.
func firstConnected(t *testing.T, g *graph.CSR) graph.Vertex {
	t.Helper()
	for v := graph.Vertex(0); int64(v) < g.N; v++ {
		if g.Degree(v) > 0 {
			return v
		}
	}
	t.Fatal("graph has no edges")
	return graph.NoVertex
}

// TestKernelResumeRejects covers the driver's refuse-to-load paths.
func TestKernelResumeRejects(t *testing.T) {
	g := kron(t, 8, 21)
	wg := weighted(t, g, 9)
	root := firstConnected(t, g)
	direct := ckptMachine(core.TransportDirect)
	take := func(t *testing.T, run func(cfg core.Config) error) *ckpt.Checkpoint {
		t.Helper()
		cfg := direct
		cfg.CheckpointEvery = 1
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "kernel.ckpt.json")
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
		c, err := ckpt.ReadFile(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c := take(t, func(cfg core.Config) error { _, err := WCC(cfg, g); return err })
	if _, err := ResumeWCC(ckptMachine(core.TransportRelay), g, c); err == nil {
		t.Fatal("wrong-transport (fingerprint) checkpoint accepted")
	}
	if _, err := ResumeKCore(direct, g, 2, c); err == nil {
		t.Fatal("wrong-kernel checkpoint accepted")
	}
	if _, err := ResumeWCC(direct, g, nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}

	// A checkpoint pins its kernel's arguments: each row resumes on the same
	// machine, kernel and root, with different arguments.
	for _, row := range []struct {
		name   string
		run    func(cfg core.Config) error
		resume func(c *ckpt.Checkpoint) error
	}{
		{
			name:   "kcore k=4 resumed with k=2",
			run:    func(cfg core.Config) error { _, err := KCore(cfg, g, 4); return err },
			resume: func(c *ckpt.Checkpoint) error { _, err := ResumeKCore(direct, g, 2, c); return err },
		},
		{
			name:   "pagerank 5 iterations resumed with 9 at damping 0.5",
			run:    func(cfg core.Config) error { _, err := PageRank(cfg, g, 5, 0); return err },
			resume: func(c *ckpt.Checkpoint) error { _, err := ResumePageRank(direct, g, 9, 0.5, c); return err },
		},
		{
			name:   "delta-sssp delta=16 resumed with delta=3",
			run:    func(cfg core.Config) error { _, err := DeltaSSSP(cfg, wg, root, 16); return err },
			resume: func(c *ckpt.Checkpoint) error { _, err := ResumeDeltaSSSP(direct, wg, root, 3, c); return err },
		},
		{
			name: "betweenness one source resumed with two",
			run:  func(cfg core.Config) error { _, err := Betweenness(cfg, g, []graph.Vertex{root}); return err },
			resume: func(c *ckpt.Checkpoint) error {
				_, err := ResumeBetweenness(direct, g, []graph.Vertex{root, root + 1}, c)
				return err
			},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			if err := row.resume(take(t, row.run)); err == nil {
				t.Fatal("checkpoint resumed with different kernel arguments")
			}
		})
	}
}
