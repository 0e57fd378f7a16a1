package obs

import (
	"fmt"
	"os"
	"runtime/pprof"
	"runtime/trace"
)

// ProfileConfig is the opt-in host-side profiling hook: it profiles the
// simulator process itself (goroutine scheduling, allocation, lock
// contention of the simulated machine), not the modelled hardware. Both
// fields are file paths; empty means disabled.
type ProfileConfig struct {
	// CPUProfile writes a pprof CPU profile covering the profiled region.
	CPUProfile string
	// ExecTrace writes a runtime/trace execution trace covering the
	// profiled region (inspect with `go tool trace`).
	ExecTrace string
}

// StartProfile starts the requested profilers and returns a stop function
// that flushes and closes the output files. It returns a no-op stop when
// nothing is enabled. On error, anything already started is stopped.
func StartProfile(p ProfileConfig) (stop func() error, err error) {
	var stops []func() error
	stopAll := func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	if p.CPUProfile != "" {
		f, err := os.Create(p.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}

	if p.ExecTrace != "" {
		f, err := os.Create(p.ExecTrace)
		if err != nil {
			stopAll()
			return nil, fmt.Errorf("obs: exec trace: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stopAll()
			return nil, fmt.Errorf("obs: exec trace: %w", err)
		}
		stops = append(stops, func() error {
			trace.Stop()
			return f.Close()
		})
	}

	return stopAll, nil
}
