package swbfs

import (
	"io"

	"swbfs/internal/core"
	"swbfs/internal/obs"
)

// Observability surface of the public API: attach an Observer to
// MachineConfig.Obs and every BFS and algorithm run feeds it — metrics,
// one structured record per run (its levels, module spans, relay flows and
// straggler flags, which the Chrome export renders) and live progress
// events. See docs/OBSERVABILITY.md for the full tour.

// Observer bundles the observability sinks a run feeds; any field may be
// nil to disable that sink.
type Observer = obs.Observer

// NewObserver returns an Observer with the metrics and trace sinks
// enabled. Attach a ProgressBroker for live events.
func NewObserver() *Observer { return obs.New() }

// ProgressBroker fans live per-level / per-round progress events out to
// subscribers — the engine behind the telemetry server's /events stream.
type ProgressBroker = obs.ProgressBroker

// NewProgressBroker returns an empty broker; assign it to Observer.Progress.
func NewProgressBroker() *ProgressBroker { return obs.NewProgressBroker() }

// LiveEvent is one live progress update from a running kernel. Kind is one
// of the Event* constants; Kernel names the algorithm ("sssp", "wcc", ...)
// and is empty for BFS.
type LiveEvent = obs.LiveEvent

// Live event kinds published by runs.
const (
	// EventRunStart opens a rooted run.
	EventRunStart = obs.EventRunStart
	// EventLevel reports one completed BFS level or algorithm round.
	EventLevel = obs.EventLevel
	// EventRunDone closes a run with its headline results.
	EventRunDone = obs.EventRunDone
	// EventStraggler flags a node that exceeded the straggler factor.
	EventStraggler = obs.EventStraggler
)

// AbortError is returned when a run tears down early — a chaos-injected
// node kill, a watchdog timeout, or any module error. It carries the
// original cause (errors.Is/As see through it) and the levels or rounds
// that completed before the failure.
type AbortError = core.AbortError

// ErrLevelTimeout is the watchdog's abort cause: no level or round
// completed within MachineConfig.LevelTimeout.
var ErrLevelTimeout = core.ErrLevelTimeout

// FlightRecorder is the always-on black box of the simulated machine: a
// fixed-capacity per-node ring of structured events (sends and receives
// with retry counts, chaos injections, duplicate drops, round windows,
// watchdog activity). Runs allocate a private recorder automatically;
// attach one to Observer.Flight to share it with the telemetry server
// (/debug/flight) or to dump it yourself. On an aborted run the recorder
// drains into AbortError.FlightDump (and MachineConfig.FlightDump names a
// file to write it to). Render dumps with cmd/inspect. See
// docs/OBSERVABILITY.md "Flight recorder & post-mortems".
type FlightRecorder = obs.FlightRecorder

// NewFlightRecorder builds a recorder with the given per-node ring
// capacity (0 selects the default, obs.DefaultFlightCapacity events).
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.NewFlightRecorder(capacity) }

// FlightDump is the schema-versioned JSON export of a FlightRecorder:
// canonical deterministic event order, so dumps from identical seeds and
// configurations are byte-identical.
type FlightDump = obs.FlightDump

// FlightEvent is one recorded black-box event.
type FlightEvent = obs.FlightEvent

// WriteFlightDump serializes a dump as indented JSON.
func WriteFlightDump(w io.Writer, d *FlightDump) error { return obs.WriteFlightDump(w, d) }

// ReadFlightDump parses a dump and validates its schema version.
func ReadFlightDump(r io.Reader) (*FlightDump, error) { return obs.ReadFlightDump(r) }
