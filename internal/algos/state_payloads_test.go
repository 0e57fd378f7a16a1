package algos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

// statePayloadsGolden pins every table kernel's node payloads at one
// mid-run boundary: the bytes a checkpoint stores per node. A change to how
// kernels declare or encode their state must leave them equal as JSON
// values (an empty list may read null or []), so checkpoints written by
// older builds keep resuming.
const statePayloadsGolden = "testdata/state_payloads.golden.json"

// pinnedPayloads is one kernel's entry in statePayloadsGolden: the boundary
// and each node's compacted payload, in node order.
type pinnedPayloads struct {
	Level int               `json:"level"`
	Nodes []json.RawMessage `json:"nodes"`
}

// midRunCheckpoint runs kernel through the table twice: once checkpointing
// every boundary to learn its round count R, then checkpointing only at
// boundary R/2+1, which it returns.
func midRunCheckpoint(t *testing.T, cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, kernel, args string) *ckpt.Checkpoint {
	t.Helper()
	last := healthyCheckpoint(t, cfg, wg, root, kernel, args)
	return checkpointEvery(t, cfg, wg, root, kernel, args, last.Level/2+1)
}

// TestStatePayloadsPinned holds every kernel's node payloads at a mid-run
// boundary on a scale-8 graph to the golden, then resumes a checkpoint
// carrying the golden's payloads and demands the uninterrupted run's result
// bit for bit. K-core runs at k=8, which peels for three rounds, so its
// boundary still has removals scheduled. -update-golden rewrites the file.
func TestStatePayloadsPinned(t *testing.T) {
	g := kron(t, 8, 21)
	wg := testutil.Weighted(t, g, 9)
	root := testutil.FirstConnected(t, g)
	args := ckptArgs(root)
	args["kcore"] = "k=8"
	cfg := ckptMachine(core.TransportDirect)

	got := map[string]pinnedPayloads{}
	mids := map[string]*ckpt.Checkpoint{}
	for _, k := range Kernels {
		c := midRunCheckpoint(t, cfg, wg, root, k.Name, args[k.Name])
		p := pinnedPayloads{Level: c.Level}
		for _, ns := range c.Nodes {
			var buf bytes.Buffer
			if err := json.Compact(&buf, ns.Data); err != nil {
				t.Fatal(err)
			}
			p.Nodes = append(p.Nodes, buf.Bytes())
		}
		got[k.Name], mids[k.Name] = p, c
	}
	if *updateGolden {
		writePinnedPayloads(t, got)
		return
	}
	data, err := os.ReadFile(statePayloadsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]pinnedPayloads
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d kernels, the table has %d", statePayloadsGolden, len(want), len(got))
	}
	for _, k := range Kernels {
		t.Run(k.Name, func(t *testing.T) {
			w, ok := want[k.Name]
			if !ok {
				t.Fatalf("%s has no entry", statePayloadsGolden)
			}
			p := got[k.Name]
			if p.Level != w.Level || len(p.Nodes) != len(w.Nodes) {
				t.Fatalf("boundary %d with %d nodes, golden %d with %d", p.Level, len(p.Nodes), w.Level, len(w.Nodes))
			}
			for i := range w.Nodes {
				if !reflect.DeepEqual(jsonValue(t, p.Nodes[i]), jsonValue(t, w.Nodes[i])) {
					t.Errorf("node %d payload moved:\n got %s\nwant %s", i, p.Nodes[i], w.Nodes[i])
				}
			}

			base, err := k.Run(cfg, wg, root, args[k.Name], nil)
			if err != nil {
				t.Fatal(err)
			}
			c := *mids[k.Name]
			c.Nodes = slices.Clone(c.Nodes)
			for i := range c.Nodes {
				c.Nodes[i].Data = w.Nodes[i]
			}
			resumed, err := resume(cfg, wg, &c)
			if err != nil {
				t.Fatalf("golden payloads refused: %v", err)
			}
			if !reflect.DeepEqual(base, resumed) {
				t.Fatalf("resumed from the golden payloads at %d, the result differs from the uninterrupted run", c.Level)
			}
		})
	}
}

// jsonValue decodes a payload with exact numbers and every empty list read
// as null, the one difference two encodings of the same state may show.
func jsonValue(t *testing.T, raw []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	var norm func(v any) any
	norm = func(v any) any {
		switch v := v.(type) {
		case []any:
			if len(v) == 0 {
				return nil
			}
			for i := range v {
				v[i] = norm(v[i])
			}
		case map[string]any:
			for k := range v {
				v[k] = norm(v[k])
			}
		}
		return v
	}
	return norm(v)
}

// writePinnedPayloads writes the golden with one node payload per line.
func writePinnedPayloads(t *testing.T, got map[string]pinnedPayloads) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	slices.Sort(names)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, name := range names {
		p := got[name]
		fmt.Fprintf(&b, "  %q: {\"level\": %d, \"nodes\": [\n", name, p.Level)
		for j, raw := range p.Nodes {
			b.WriteString("    ")
			b.Write(raw)
			if j < len(p.Nodes)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("  ]}")
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	if err := os.WriteFile(statePayloadsGolden, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkpointEvery runs kernel through the table with a checkpoint every
// `every` boundaries and returns the last one written.
func checkpointEvery(t *testing.T, cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, kernel, args string, every int) *ckpt.Checkpoint {
	t.Helper()
	k, err := KernelByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointEvery = every
	cfg.CheckpointPath = filepath.Join(t.TempDir(), kernel+".ckpt.json")
	if _, err := k.Run(cfg, wg, root, args, nil); err != nil {
		t.Fatalf("%s: %v", kernel, err)
	}
	c, err := ckpt.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
