package core

import (
	"fmt"
	"math"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/perf"
)

// State declares one node's BFS state at a level boundary: the parent map,
// the frontier entering the next level (next and genNext are empty there),
// and the visited snapshot *before* that frontier is folded in (the fold
// opens the next level's Stats) with its degree sum.
func (ns *nodeState) State() ckpt.State {
	return ckpt.State{
		ckpt.Slice("parent", ns.parent),
		ckpt.Words("curr", ns.curr),
		ckpt.Words("visited", ns.visited),
		ckpt.Scalar("visited_deg", &ns.visitedDeg),
	}
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
	var err error
	if c.Codec, err = comm.CodecByName(mc.Codec); err != nil {
		return Config{}, fmt.Errorf("core: checkpoint codec: %w", err)
	}
	if c.CodecBackward, err = comm.CodecByName(mc.CodecBackward); err != nil {
		return Config{}, fmt.Errorf("core: checkpoint backward codec: %w", err)
	}
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
