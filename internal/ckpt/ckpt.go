// Package ckpt defines the level-boundary checkpoint format of the
// simulated machine and its byte-deterministic JSON codec.
//
// A checkpoint is taken at a level/round barrier — the natural global
// consistency point of a level-synchronous engine: no batch is in flight,
// every counter holds exactly the completed levels' traffic, and each
// node's algorithm state is a pure function of the run so far. The file
// holds everything a Resume path needs to reconstruct the ensemble and
// continue such that the completed run's Result/RunInfo is bitwise
// identical to an uninterrupted run: per-node kernel state (each engine's
// State, encoded by the one codec in state.go), the machine-wide level
// statistics and traffic counters, the direction-policy state, the chaos
// injection log, and the flight-recorder rings.
//
// Determinism contract: encoding is canonical (fixed field order, indented
// json.Encoder, float64 values carried as IEEE-754 bit patterns in uint64
// fields), so two runs of the same seed and configuration write
// byte-identical checkpoint files at every boundary, at every Workers
// width, on both transports. See docs/CHAOS.md ("Checkpoint & resume").
package ckpt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"swbfs/internal/chaos"
	"swbfs/internal/comm"
	"swbfs/internal/fabric"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// SchemaVersion stamps every checkpoint; readers reject versions they do
// not understand.
const SchemaVersion = 1

// MachineConfig is the run-identity part of a core.Config, embedded in the
// checkpoint so a resume can reconstruct the machine without the caller
// re-supplying every knob. Host-only knobs (Workers, timeouts, observers,
// the chaos plan) are deliberately absent: they do not affect modelled
// output, so a run may be resumed at a different worker width — the
// bit-identity guarantee still holds.
type MachineConfig struct {
	Nodes         int    `json:"nodes"`
	SuperNodeSize int    `json:"super_node_size"`
	Transport     string `json:"transport"`
	Engine        string `json:"engine"`
	GroupM        int    `json:"group_m,omitempty"`

	DirectionOptimized bool `json:"direction_optimized"`
	// AlphaBits and BetaBits carry the policy thresholds as IEEE-754 bit
	// patterns so the file stays byte-deterministic and round-trips exactly.
	AlphaBits uint64 `json:"alpha_bits"`
	BetaBits  uint64 `json:"beta_bits"`

	HubPrefetch  bool `json:"hub_prefetch"`
	HubsTopDown  int  `json:"hubs_top_down,omitempty"`
	HubsBottomUp int  `json:"hubs_bottom_up,omitempty"`

	SmallMessageMPE bool   `json:"small_message_mpe"`
	BatchBytes      int64  `json:"batch_bytes,omitempty"`
	MPIMemoryBudget int64  `json:"mpi_memory_budget,omitempty"`
	Codec           string `json:"codec"`
	// CodecBackward is the backward-channel codec override ("" = none).
	// Absent from files written before per-channel codecs existed, so
	// those parse — and fingerprint — exactly as they always did.
	CodecBackward string `json:"codec_backward,omitempty"`
	Partition     string `json:"partition"`

	// GraphN and GraphEdges identify the graph (the file does not embed the
	// graph itself; the resume caller must rebuild the same one).
	GraphN     int64 `json:"graph_n"`
	GraphEdges int64 `json:"graph_edges"`
	// GraphDigest pins that graph by content (graph.Digest: the CSR, plus
	// the weights of a weighted kernel); a resume onto a graph that digests
	// otherwise is refused. It stays out of the fingerprint, which names
	// the machine and the graph's shape.
	GraphDigest string `json:"graph_digest,omitempty"`
}

// Fingerprint renders the configuration identity as a canonical string.
// Resume refuses a checkpoint whose fingerprint does not match the machine
// it is being loaded into.
func (mc MachineConfig) Fingerprint() string {
	fp := fmt.Sprintf("nodes=%d super=%d transport=%s engine=%s groupM=%d dir=%t alpha=%x beta=%x hubs=%t/%d/%d smallmpe=%t batch=%d budget=%d codec=%s part=%s graph=%d/%d",
		mc.Nodes, mc.SuperNodeSize, mc.Transport, mc.Engine, mc.GroupM,
		mc.DirectionOptimized, mc.AlphaBits, mc.BetaBits,
		mc.HubPrefetch, mc.HubsTopDown, mc.HubsBottomUp,
		mc.SmallMessageMPE, mc.BatchBytes, mc.MPIMemoryBudget,
		mc.Codec, mc.Partition, mc.GraphN, mc.GraphEdges)
	if mc.CodecBackward != "" {
		// Appended only when set: every fingerprint ever written without a
		// backward codec stays byte-identical.
		fp += " codecB=" + mc.CodecBackward
	}
	return fp
}

// MachineState is the machine-wide (node-agnostic) state at the boundary.
type MachineState struct {
	// Levels are the completed levels' statistics (the modelled-time input).
	Levels []perf.LevelStats `json:"levels"`
	// LastSnap is the traffic snapshot after the last completed level's
	// stats exchange — the baseline the next level's delta is measured from.
	LastSnap fabric.Snapshot `json:"last_snap"`
	// Net is the network's cumulative counter state.
	Net comm.NetState `json:"net"`
	// Policy is the direction policy's current state (core.Direction) and
	// HubVisited the machine-wide hub-visited bitmap: BFS's machine-wide
	// state (core.MachineSpec.Shared), each under its field's name.
	Policy     int      `json:"policy"`
	HubVisited []uint64 `json:"hub_visited,omitempty"`
	// Injections is the chaos injection log at the boundary — the faults
	// that already fired. A resumed run seeds its injector's log with these
	// so LastInjections matches an uninterrupted run.
	Injections []chaos.Fault `json:"injections,omitempty"`
	// Flight is the flight recorder's ring state, so a post-resume dump
	// still covers the pre-checkpoint events.
	Flight *obs.FlightState `json:"flight,omitempty"`
	// Work is the machine's module-work ledger, one row per completed level
	// indexed by node, kept on every run: a resumed run's module metrics
	// and spans cover the levels before the boundary too.
	Work [][]ModuleWork `json:"work,omitempty"`
}

// ModuleWork is one node's deterministic module work of one completed
// level: the level and its direction (core.Direction), which names the
// generator; the generator, forward handler, backward handler and relay
// input bytes; the module invocations (CPE-cluster dispatches); and the
// sub-1 KB batches the MPE handled itself.
type ModuleWork struct {
	Level        int      `json:"level"`
	Dir          int      `json:"dir"`
	Bytes        [4]int64 `json:"bytes"`
	Invocations  int64    `json:"invocations"`
	SmallBatches int64    `json:"small_batches"`
}

// NodeState is one simulated node's serialized state. Data is the node's
// payload: its engine's State, encoded (see State).
type NodeState struct {
	ID   int             `json:"id"`
	Data json.RawMessage `json:"data"`
}

// Checkpoint is the full serialized machine at one level boundary.
type Checkpoint struct {
	Schema int    `json:"schema"`
	Kernel string `json:"kernel"`
	Root   int64  `json:"root"`
	// Args is the kernel's canonical argument string ("k=4", ...); resume
	// refuses a run with different arguments. Empty for BFS.
	Args string `json:"args,omitempty"`
	// Config identifies the machine; Fingerprint is Config.Fingerprint(),
	// duplicated so mismatches show up even to readers that do not
	// recompute it.
	Config      MachineConfig `json:"config"`
	Fingerprint string        `json:"fingerprint"`
	// Level is the number of completed levels/rounds — the level the
	// resumed run starts at.
	Level   int          `json:"level"`
	Machine MachineState `json:"machine"`
	Nodes   []NodeState  `json:"nodes"`
}

// Encode serializes the checkpoint into its canonical byte form.
func Encode(c *Checkpoint) ([]byte, error) {
	var b strings.Builder
	if err := Write(&b, c); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// Write serializes a checkpoint as indented JSON — the byte-stable format
// the determinism tests compare and /debug/checkpoint serves.
func Write(w io.Writer, c *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("ckpt: encoding checkpoint: %w", err)
	}
	return nil
}

// WriteFile writes a checkpoint to path (the -checkpoint flags and the
// abort post-mortem path). It writes a temporary file next to path and
// renames it over path, so a failed or interrupted write leaves the
// previous checkpoint there whole.
func WriteFile(path string, c *Checkpoint) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("ckpt: writing checkpoint: %w", err)
	}
	err = Write(f, c)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(f.Name(), 0o644) // CreateTemp's 0600, widened to what os.Create gives
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("ckpt: writing checkpoint: %w", err)
	}
	return nil
}

// Read parses a checkpoint and validates its schema version and
// fingerprint consistency.
func Read(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("ckpt: decoding checkpoint: %w", err)
	}
	if c.Schema != SchemaVersion {
		return nil, fmt.Errorf("ckpt: checkpoint schema %d, this build reads %d", c.Schema, SchemaVersion)
	}
	if got := c.Config.Fingerprint(); c.Fingerprint != got {
		return nil, fmt.Errorf("ckpt: fingerprint mismatch: file says %q, config computes %q", c.Fingerprint, got)
	}
	return &c, nil
}

// ReadFile reads a checkpoint from path.
func ReadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading checkpoint: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Render writes a human-readable summary of a checkpoint — what
// `inspect <ckpt.json>` prints.
func Render(w io.Writer, c *Checkpoint) error {
	fmt.Fprintf(w, "checkpoint schema %d\n", c.Schema)
	fmt.Fprintf(w, "  kernel       %s  root %d\n", c.Kernel, c.Root)
	fmt.Fprintf(w, "  machine      %d nodes, %s transport, %s engine, graph %d vertices / %d edges\n",
		c.Config.Nodes, c.Config.Transport, c.Config.Engine, c.Config.GraphN, c.Config.GraphEdges)
	fmt.Fprintf(w, "  boundary     %d completed level(s)/round(s)\n", c.Level)
	fmt.Fprintf(w, "  fingerprint  %s\n", c.Fingerprint)
	if c.Config.GraphDigest != "" {
		fmt.Fprintf(w, "  graph digest %s\n", c.Config.GraphDigest)
	}
	fmt.Fprintf(w, "  traffic      %s\n", c.Machine.Net.Counters.String())
	if len(c.Machine.Injections) > 0 {
		specs := make([]string, len(c.Machine.Injections))
		for i, f := range c.Machine.Injections {
			specs[i] = f.String()
		}
		fmt.Fprintf(w, "  injections   %s\n", strings.Join(specs, ", "))
	}
	if fs := c.Machine.Flight; fs != nil {
		events := 0
		for _, rg := range fs.Rings {
			events += len(rg.Events)
		}
		fmt.Fprintf(w, "  flight       %d run(s), %d ring(s), %d buffered event(s)\n",
			len(fs.Runs), len(fs.Rings), events)
	}
	for _, ns := range c.Nodes {
		fmt.Fprintf(w, "  node %-4d    %d B state\n", ns.ID, len(ns.Data))
	}
	for _, ls := range c.Machine.Levels {
		fmt.Fprintf(w, "  level %-3d    dir=%s frontier=%d edges=%d rounds=%d\n",
			ls.Level, ls.Direction, ls.FrontierVertices, ls.FrontierEdges, ls.Rounds)
	}
	return nil
}
