package algos

import (
	"encoding/json"
	"fmt"
)

// The driver side of round-boundary checkpointing: what one node
// serializes at the bottom of its round loop — its kernel's state through
// the Checkpointer hook — and how a resumed node loads it back. The latch
// that assembles the boundary lives on the machine
// (core.Machine.StageCheckpoint).

// Checkpointer is the per-node state serialization hook every kernel
// implements to participate in checkpoint/restart. CheckpointState returns
// a JSON-serializable deep copy of the node's algorithm state at a round
// boundary; RestoreState loads such a payload into a freshly constructed
// node before the run loop starts. A kernel run with
// Config.CheckpointEvery > 0 (or resumed from a checkpoint) fails fast if
// its RoundAlgo does not implement this interface.
type Checkpointer interface {
	CheckpointState() (any, error)
	RestoreState(data []byte) error
}

// driverNodeData wraps one node's kernel payload.
type driverNodeData struct {
	Algo json.RawMessage `json:"algo"`
}

// captureNode serializes one node's driver + kernel state. Called at the
// round boundary on the node's own goroutine — no concurrent writers.
func (n *nodeRun) captureNode() (json.RawMessage, error) {
	ckr, ok := n.algo.(Checkpointer)
	if !ok {
		return nil, fmt.Errorf("algos: kernel %q does not implement Checkpointer", n.kernel)
	}
	state, err := ckr.CheckpointState()
	if err != nil {
		return nil, fmt.Errorf("algos: node %d checkpoint state: %w", n.ctx.ID, err)
	}
	raw, err := json.Marshal(state)
	if err != nil {
		return nil, fmt.Errorf("algos: node %d checkpoint state: %w", n.ctx.ID, err)
	}
	return json.Marshal(&driverNodeData{Algo: raw})
}

// restoreNode loads a serialized node state into a freshly constructed
// node (the resume path, before any goroutine starts).
func (n *nodeRun) restoreNode(raw json.RawMessage) error {
	ckr, ok := n.algo.(Checkpointer)
	if !ok {
		return fmt.Errorf("algos: kernel %q does not implement Checkpointer", n.kernel)
	}
	var data driverNodeData
	if err := json.Unmarshal(raw, &data); err != nil {
		return fmt.Errorf("algos: node %d checkpoint state: %w", n.ctx.ID, err)
	}
	if err := ckr.RestoreState(data.Algo); err != nil {
		return fmt.Errorf("algos: node %d: %w", n.ctx.ID, err)
	}
	return nil
}
