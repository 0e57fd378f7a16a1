// Package flight analyzes flight-recorder dumps (internal/obs): it
// renders a dump as a per-node event timeline, correlates anomalies
// against the chaos injection log to mark them injected vs. emergent,
// diffs two dumps from the same seed, and reconciles a dump's inject
// events 1:1 with a run's recorded injections — the checks the chaos
// harness runs on every aborted run and cmd/inspect exposes to
// operators. It sits above both obs and chaos in the import DAG, so the
// transport and engines never pay for the analysis code.
package flight

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"swbfs/internal/chaos"
	"swbfs/internal/obs"
)

// injections is one run's parsed inject events, the reference the
// renderer marks anomalies against.
type injections struct {
	faults []chaos.Fault
}

func parseInjections(events []obs.FlightEvent, run int) injections {
	var inj injections
	for _, ev := range events {
		if ev.Run != run || ev.Kind != obs.FlightInject {
			continue
		}
		if f, err := chaos.ParseFault(ev.Fault); err == nil {
			inj.faults = append(inj.faults, f)
		}
	}
	return inj
}

// dupInjected reports whether a dup fault was injected at the sender-side
// coordinate a dup-drop event observed: the dropper's peer is the struck
// sender, and wire/channel name the stream — the batch's own, or, when it
// carried an End, the End's.
func (inj injections) dupInjected(ev obs.FlightEvent) bool {
	for _, f := range inj.faults {
		wire := chaos.WireNames[f.WireKind]
		if f.Kind == chaos.KindDup && f.Node == ev.Peer && f.Level == ev.Level &&
			(wire == ev.Wire || ev.End && wire == carriedEnd[ev.Wire]) && chaos.ChanNames[f.Channel] == ev.Channel {
			return true
		}
	}
	return false
}

// carriedEnd names, by wire kind, the End marker a batch of that kind
// carries when its event is marked End.
var carriedEnd = map[string]string{"data": "end", "relay-data": "relay-end"}

// wireOf renders a delivery's wire kind, joined by the End it carries
// ("data+end").
func wireOf(ev obs.FlightEvent) string {
	if ev.End {
		return ev.Wire + "+" + carriedEnd[ev.Wire]
	}
	return ev.Wire
}

// delayInjected reports whether any delay fault was injected on (node,
// level) — the injected explanation for a straggler flag.
func (inj injections) delayInjected(node, level int) bool {
	for _, f := range inj.faults {
		if f.Kind.IsDelay() && f.Node == node && f.Level == level {
			return true
		}
	}
	return false
}

// errWriter remembers the first write error so the render loop stays
// uncluttered.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

// Render writes a human-readable per-node timeline of a dump: run
// metadata, per-level traffic summaries per node, and every anomalous
// event individually — chaos injections, faulted or retried sends,
// duplicate drops, stragglers, watchdog activity and the abort — each
// marked [injected] when the chaos injection log explains it and
// [emergent] when it does not.
func Render(w io.Writer, d *obs.FlightDump) error {
	ew := &errWriter{w: w}
	ew.printf("flight dump: schema %d, %d run(s), %d event(s), %d dropped\n",
		d.Schema, len(d.Runs), len(d.Events), d.Dropped)
	if d.Aborted {
		ew.printf("ABORTED: %s\n", d.Cause)
	}
	if d.Dropped > 0 {
		ew.printf("warning: %d event(s) lost to ring overflow; oldest traffic is missing\n", d.Dropped)
	}
	for _, meta := range d.Runs {
		ew.printf("\nrun %d: kernel=%s root=%d nodes=%d transport=%s\n",
			meta.Run, meta.Kernel, meta.Root, meta.Nodes, meta.Transport)
		renderRun(ew, d.Events, meta.Run)
	}
	return ew.err
}

// nodeTally aggregates one node's routine traffic within a level.
type nodeTally struct {
	sends, sendPairs int64
	recvs, recvPairs int64
}

func renderRun(ew *errWriter, events []obs.FlightEvent, run int) {
	inj := parseInjections(events, run)
	// Events arrive in canonical dump order — grouped by level already —
	// so one pass with a level cursor suffices.
	curLevel := -1 << 30
	var tally map[int]*nodeTally
	var order []int
	flush := func() {
		if tally == nil {
			return
		}
		sort.Ints(order)
		for _, node := range order {
			t := tally[node]
			ew.printf("    node %d: %d send(s) (%d pairs), %d recv(s) (%d pairs)\n",
				node, t.sends, t.sendPairs, t.recvs, t.recvPairs)
		}
		tally, order = nil, nil
	}
	openLevel := func(level int) {
		flush()
		curLevel = level
		tally = make(map[int]*nodeTally)
		if level >= 0 {
			ew.printf("  level %d:\n", level)
		}
	}
	note := func(node int) *nodeTally {
		t := tally[node]
		if t == nil {
			t = &nodeTally{}
			tally[node] = t
			order = append(order, node)
		}
		return t
	}
	for _, ev := range events {
		if ev.Run != run {
			continue
		}
		if ev.Level != curLevel {
			openLevel(ev.Level)
		}
		indent := "  "
		if ev.Level >= 0 {
			indent = "    "
		}
		switch ev.Kind {
		case obs.FlightSend:
			t := note(ev.Node)
			t.sends++
			t.sendPairs += int64(ev.Pairs)
			if ev.Fault != "" {
				ew.printf("%snode %d: send %s/%s -> %d op %d (%d pairs, %d retries) fault %s [injected]\n",
					indent, ev.Node, wireOf(ev), ev.Channel, ev.Peer, ev.Op, ev.Pairs, ev.Retries, ev.Fault)
			} else if ev.Retries > 0 {
				ew.printf("%snode %d: send %s/%s -> %d op %d (%d pairs, %d retries) [emergent]\n",
					indent, ev.Node, wireOf(ev), ev.Channel, ev.Peer, ev.Op, ev.Pairs, ev.Retries)
			}
		case obs.FlightRecv:
			t := note(ev.Node)
			t.recvs++
			t.recvPairs += int64(ev.Pairs)
		case obs.FlightDupDrop:
			mark := "[emergent]"
			if inj.dupInjected(ev) {
				mark = "[injected]"
			}
			ew.printf("%snode %d: dup-drop %s/%s <- %d op %d (%d pairs) %s\n",
				indent, ev.Node, wireOf(ev), ev.Channel, ev.Peer, ev.Op, ev.Pairs, mark)
		case obs.FlightInject:
			ew.printf("%sinject %s (node %d) [injected]\n", indent, ev.Fault, ev.Node)
		case obs.FlightStraggler:
			mark := "[emergent]"
			if inj.delayInjected(ev.Node, ev.Level) {
				mark = "[injected]"
			}
			ew.printf("%sstraggler node %d: %s %s\n", indent, ev.Node, ev.Detail, mark)
		case obs.FlightRoundOpen:
			ew.printf("%sround-open\n", indent)
		case obs.FlightRoundClose:
			ew.printf("%sround-close %s\n", indent, ev.Detail)
		default:
			// Run-scoped lifecycle: run-start, watchdog-arm/fire, abort.
			if ev.Detail != "" {
				ew.printf("%s%s: %s\n", indent, ev.Kind, ev.Detail)
			} else {
				ew.printf("%s%s\n", indent, ev.Kind)
			}
		}
	}
	flush()
}

// diffKey addresses one event slot for Diff: everything that identifies
// the event's place in the canonical order, excluding the payload fields
// that are compared once slots are matched.
type diffKey struct {
	run, level, node int
	kind             string
	wire, channel    string
	peer, op         int
}

func keyOf(ev obs.FlightEvent) diffKey {
	return diffKey{ev.Run, ev.Level, ev.Node, ev.Kind, ev.Wire, ev.Channel, ev.Peer, ev.Op}
}

func describeKey(k diffKey) string {
	s := fmt.Sprintf("run %d level %d node %d %s", k.run, k.level, k.node, k.kind)
	if k.wire != "" {
		s += fmt.Sprintf(" %s/%s peer %d op %d", k.wire, k.channel, k.peer, k.op)
	}
	return s
}

// diffLineCap bounds each difference category's printed lines; the count
// line always reports the full totals.
const diffLineCap = 40

// Diff compares two dumps — typically the same seed and configuration
// recorded on two builds or machines — and writes the differences:
// events present on only one side and matched events whose payload
// (carried End, pairs, retries, fault, detail) changed. Lifecycle events whose Detail
// is inherently host-dependent (straggler flags, watchdog-fire timing)
// participate like any other; identical seeds with stragglers off diff
// clean. Returns the number of differing event slots (0 = identical).
func Diff(w io.Writer, a, b *obs.FlightDump, labelA, labelB string) (int, error) {
	ew := &errWriter{w: w}
	am := make(map[diffKey]obs.FlightEvent, len(a.Events))
	for _, ev := range a.Events {
		am[keyOf(ev)] = ev
	}
	bm := make(map[diffKey]obs.FlightEvent, len(b.Events))
	for _, ev := range b.Events {
		bm[keyOf(ev)] = ev
	}
	var onlyA, onlyB, changed []string
	for _, ev := range a.Events {
		k := keyOf(ev)
		bv, ok := bm[k]
		if !ok {
			onlyA = append(onlyA, describeKey(k))
			continue
		}
		if ev.End != bv.End || ev.Pairs != bv.Pairs || ev.Retries != bv.Retries || ev.Fault != bv.Fault || ev.Detail != bv.Detail {
			changed = append(changed, fmt.Sprintf("%s: end %v vs %v, pairs %d vs %d, retries %d vs %d, fault %q vs %q, detail %q vs %q",
				describeKey(k), ev.End, bv.End, ev.Pairs, bv.Pairs, ev.Retries, bv.Retries, ev.Fault, bv.Fault, ev.Detail, bv.Detail))
		}
	}
	for _, ev := range b.Events {
		if _, ok := am[keyOf(ev)]; !ok {
			onlyB = append(onlyB, describeKey(keyOf(ev)))
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	sort.Strings(changed)

	total := len(onlyA) + len(onlyB) + len(changed)
	ew.printf("flight diff: %s (%d events) vs %s (%d events): %d difference(s)\n",
		labelA, len(a.Events), labelB, len(b.Events), total)
	emit := func(title string, lines []string) {
		if len(lines) == 0 {
			return
		}
		ew.printf("%s (%d):\n", title, len(lines))
		for i, l := range lines {
			if i == diffLineCap {
				ew.printf("  ... and %d more\n", len(lines)-diffLineCap)
				break
			}
			ew.printf("  %s\n", l)
		}
	}
	emit("only in "+labelA, onlyA)
	emit("only in "+labelB, onlyB)
	emit("changed", changed)
	return total, ew.err
}

// Reconcile verifies that the dump's inject events for its final run
// match a run's injection log (core.Runner.LastInjections or
// algos.RunInfo.Injections) one-to-one: same fault specs, same
// multiplicities. Inject events live in the recorder's never-evicted
// machine ring, so reconciliation holds even when delivery rings
// overflowed.
func Reconcile(d *obs.FlightDump, log []chaos.Fault) error {
	if len(d.Runs) == 0 {
		return fmt.Errorf("flight: dump has no runs to reconcile")
	}
	lastRun := d.Runs[len(d.Runs)-1].Run
	var got []string
	for _, ev := range d.Events {
		if ev.Run == lastRun && ev.Kind == obs.FlightInject {
			got = append(got, ev.Fault)
		}
	}
	want := make([]string, len(log))
	for i, f := range log {
		want[i] = f.String()
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		return fmt.Errorf("flight: run %d recorded %d inject event(s), injection log has %d (dump: %s; log: %s)",
			lastRun, len(got), len(want), strings.Join(got, ","), strings.Join(want, ","))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("flight: run %d inject events diverge from injection log at %q vs %q",
				lastRun, got[i], want[i])
		}
	}
	return nil
}
