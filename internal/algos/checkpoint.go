package algos

import (
	"encoding/json"
	"fmt"
)

// The driver side of round-boundary checkpointing: what one node
// serializes at a round boundary — its kernel's CheckpointState — and how a
// resumed node loads it back through RestoreState. The latch that
// assembles the boundary lives on the machine (core.Machine).

// driverNodeData wraps one node's kernel payload.
type driverNodeData struct {
	Algo json.RawMessage `json:"algo"`
}

// Capture serializes one node's driver + kernel state. Called at the
// round boundary on the node's own goroutine — no concurrent writers.
func (n *nodeRun) Capture() (json.RawMessage, error) {
	raw, err := json.Marshal(n.algo.CheckpointState())
	if err != nil {
		return nil, fmt.Errorf("algos: node %d checkpoint state: %w", n.ctx.ID, err)
	}
	return json.Marshal(&driverNodeData{Algo: raw})
}

// restoreNode loads a serialized node state into a freshly constructed
// node (the resume path, before any goroutine starts).
func (n *nodeRun) restoreNode(raw json.RawMessage) error {
	var data driverNodeData
	if err := json.Unmarshal(raw, &data); err != nil {
		return fmt.Errorf("algos: node %d checkpoint state: %w", n.ctx.ID, err)
	}
	if err := n.algo.RestoreState(data.Algo); err != nil {
		return fmt.Errorf("algos: node %d: %w", n.ctx.ID, err)
	}
	return nil
}
