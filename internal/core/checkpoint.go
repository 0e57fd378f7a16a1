package core

import (
	"encoding/json"
	"fmt"
	"math"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/perf"
)

// The BFS side of level-boundary checkpointing: what one node serializes
// at a level boundary and how a resumed node loads it back. The latch that
// assembles the boundary, and why the window is race-free, live on the
// machine (Machine.stageCheckpoint).

// bfsNodeData is one node's serialized BFS state at a level boundary: the
// parent map, the frontier entering the next level (curr — next and
// genNext are empty at the boundary) and the visited snapshot *before* the
// new frontier is folded in (the fold opens the next level's Stats). The
// node's module work rides in the machine's work ledger.
type bfsNodeData struct {
	Parent     []int64  `json:"parent"`
	Curr       []uint64 `json:"curr"`
	Visited    []uint64 `json:"visited"`
	VisitedDeg int64    `json:"visited_deg"`
}

// Capture serializes this node's state. Called at the level boundary,
// after the module goroutines have joined — no concurrent writers.
func (ns *nodeState) Capture() (json.RawMessage, error) {
	return json.Marshal(&bfsNodeData{
		Parent:     append([]int64(nil), ns.parent...),
		Curr:       append([]uint64(nil), ns.curr.Words()...),
		Visited:    append([]uint64(nil), ns.visited.Words()...),
		VisitedDeg: ns.visitedDeg,
	})
}

// restoreNode loads a serialized node state into a freshly constructed
// node (the resume path, before any goroutine starts).
func (ns *nodeState) restoreNode(raw json.RawMessage) error {
	var data bfsNodeData
	if err := json.Unmarshal(raw, &data); err != nil {
		return fmt.Errorf("core: node %d checkpoint state: %w", ns.id, err)
	}
	if len(data.Parent) != len(ns.parent) {
		return fmt.Errorf("core: node %d checkpoint has %d parents, partition gives %d",
			ns.id, len(data.Parent), len(ns.parent))
	}
	copy(ns.parent, data.Parent)
	ns.curr.LoadWords(data.Curr)
	ns.visited.LoadWords(data.Visited)
	ns.visitedDeg = data.VisitedDeg
	return nil
}

// ConfigFromCheckpoint reconstructs a machine Config from a checkpoint's
// identity record, so a resume caller only has to rebuild the graph and
// pick host-side knobs (Workers, observers, timeouts, chaos plan) — those
// do not affect modelled output and are not part of the fingerprint.
func ConfigFromCheckpoint(mc ckpt.MachineConfig) (Config, error) {
	c := Config{
		Nodes:              mc.Nodes,
		SuperNodeSize:      mc.SuperNodeSize,
		GroupM:             mc.GroupM,
		DirectionOptimized: mc.DirectionOptimized,
		Alpha:              math.Float64frombits(mc.AlphaBits),
		Beta:               math.Float64frombits(mc.BetaBits),
		HubPrefetch:        mc.HubPrefetch,
		HubsTopDown:        mc.HubsTopDown,
		HubsBottomUp:       mc.HubsBottomUp,
		SmallMessageMPE:    mc.SmallMessageMPE,
		BatchBytes:         mc.BatchBytes,
		MPIMemoryBudget:    mc.MPIMemoryBudget,
	}
	switch mc.Transport {
	case TransportRelay.String():
		c.Transport = TransportRelay
	case TransportDirect.String():
		c.Transport = TransportDirect
	default:
		return Config{}, fmt.Errorf("core: checkpoint names unknown transport %q", mc.Transport)
	}
	switch mc.Engine {
	case perf.EngineCPE.String():
		c.Engine = perf.EngineCPE
	case perf.EngineMPE.String():
		c.Engine = perf.EngineMPE
	default:
		return Config{}, fmt.Errorf("core: checkpoint names unknown engine %q", mc.Engine)
	}
	codec, err := comm.CodecByName(mc.Codec)
	if err != nil {
		return Config{}, fmt.Errorf("core: checkpoint names unknown codec %q", mc.Codec)
	}
	c.Codec = codec
	codecBackward, err := comm.CodecByName(mc.CodecBackward)
	if err != nil {
		return Config{}, fmt.Errorf("core: checkpoint names unknown backward codec %q", mc.CodecBackward)
	}
	c.CodecBackward = codecBackward
	switch mc.Partition {
	case PartitionRoundRobin.String():
		c.Partition = PartitionRoundRobin
	case PartitionBlock.String():
		c.Partition = PartitionBlock
	case PartitionDegreeBalanced.String():
		c.Partition = PartitionDegreeBalanced
	default:
		return Config{}, fmt.Errorf("core: checkpoint names unknown partition %q", mc.Partition)
	}
	return c, nil
}
