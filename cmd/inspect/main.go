// Command inspect reads the files the CLIs write and tells them apart by
// their top-level JSON keys (obs.Sniff): flight-recorder dumps (the
// -flight-dump post-mortem, /debug/flight), level-boundary checkpoints
// (-checkpoint and the abort auto-checkpoint) and RunTrace dumps
// (-trace-out, /traces). A Chrome trace is recognised and refused: it is
// what inspect renders from a RunTrace dump, not something it reads.
//
// Given one file it renders a flight dump as a per-node event timeline,
// anomalies marked [injected] when the run's chaos injection log explains
// them and [emergent] otherwise, summarises a checkpoint: kernel, boundary
// level, machine fingerprint, traffic and per-node state, or writes a
// RunTrace dump as Chrome trace-event JSON for chrome://tracing.
// Given two files it diffs two flight dumps from the same seed, exiting 1
// when they diverge, or aligns two RunTrace dumps level by level and module
// by module and prints a per-level / per-module delta table.
// See docs/OBSERVABILITY.md.
//
// Usage:
//
//	inspect run.flight.json
//	inspect run.ckpt.json
//	inspect trace.json > timeline.json
//	inspect a.flight.json b.flight.json
//	inspect before.json after.json
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"swbfs/internal/ckpt"
	"swbfs/internal/flight"
	"swbfs/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: exit status 0 on success, 1 on an error or a
// flight-dump divergence, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var err error
	switch len(args) {
	case 1:
		err = show(stdout, args[0])
	case 2:
		var diverged bool
		diverged, err = diff(stdout, args[0], args[1])
		if err == nil && diverged {
			return 1
		}
	default:
		fmt.Fprintln(stderr, "usage: inspect <dump.json | ckpt.json | trace.json>   (a -trace-out dump renders as a Chrome trace)")
		fmt.Fprintln(stderr, "       inspect <a.json> <b.json>   (two flight dumps or two -trace-out RunTrace dumps)")
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "inspect:", err)
		return 1
	}
	return 0
}

// doc is one loaded file and its sniffed kind.
type doc struct {
	path, kind string
	data       []byte
}

func load(path string) (doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return doc{}, err
	}
	kind, err := obs.Sniff(data)
	if err != nil {
		return doc{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc{path, kind, data}, nil
}

func (d doc) flightDump() (*obs.FlightDump, error) {
	fd, err := obs.ReadFlightDump(bytes.NewReader(d.data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.path, err)
	}
	return fd, nil
}

// runs decodes a RunTrace dump, and refuses every other kind of document.
func (d doc) runs() ([]obs.RunTrace, error) {
	if d.kind != obs.KindRunTrace {
		return nil, fmt.Errorf("%s: document is a %s, not a RunTrace dump (write one with -trace-out)", d.path, d.kind)
	}
	runs, err := obs.ReadTraceJSON(bytes.NewReader(d.data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.path, err)
	}
	return runs, nil
}

// show renders one flight dump, checkpoint or RunTrace dump.
func show(w io.Writer, path string) error {
	d, err := load(path)
	if err != nil {
		return err
	}
	switch d.kind {
	case obs.KindFlightDump:
		fd, err := d.flightDump()
		if err != nil {
			return err
		}
		return flight.Render(w, fd)
	case obs.KindCheckpoint:
		c, err := ckpt.Read(bytes.NewReader(d.data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return ckpt.Render(w, c)
	case obs.KindRunTrace:
		runs, err := d.runs()
		if err != nil {
			return err
		}
		return obs.WriteChromeTrace(w, runs)
	}
	return fmt.Errorf("%s is a %s: give a -trace-out dump to render one", path, d.kind)
}

// diff compares two flight dumps, reporting whether they diverge, or two
// RunTrace dumps; doc.runs refuses any other document.
func diff(w io.Writer, pathA, pathB string) (diverged bool, err error) {
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}
	switch {
	case a.kind == obs.KindFlightDump && b.kind == obs.KindFlightDump:
		fa, err := a.flightDump()
		if err != nil {
			return false, err
		}
		fb, err := b.flightDump()
		if err != nil {
			return false, err
		}
		n, err := flight.Diff(w, fa, fb, pathA, pathB)
		return n > 0, err
	case a.kind != obs.KindFlightDump && b.kind != obs.KindFlightDump:
		ra, err := a.runs()
		if err != nil {
			return false, err
		}
		rb, err := b.runs()
		if err != nil {
			return false, err
		}
		obs.WriteTraceDiff(w, ra, rb, pathA, pathB)
		return false, nil
	}
	return false, fmt.Errorf("cannot diff a %s (%s) against a %s (%s): give two flight dumps or two RunTrace dumps",
		a.kind, pathA, b.kind, pathB)
}
