// Package chaos provides deterministic fault injection for the simulated
// fabric. A Plan is a seeded, reproducible schedule of faults — part of a
// run's identity exactly like graph.KroneckerConfig.Shards is part of a
// graph's — and an Injector executes one run's worth of it.
//
// Faults strike at deterministic coordinates. Delivery faults (send
// failure, wire drop, duplicate delivery, node kill) name the Op'th batch
// of a node's (level, wire-kind, channel) delivery stream; every such
// stream has a single writer goroutine and quantum-invariant batch
// boundaries, so "the 3rd forward data batch node 2 sends during level 1"
// is the same batch in every run of the same configuration. Delay faults
// (generator, handler, relay) stall a module's host goroutine for a
// scheduled number of steps without touching the modelled machine, so a
// completed run's parent tree and LevelStats stay bit-identical to the
// fault-free run — the invariant the chaos harness asserts.
//
// See docs/CHAOS.md for the fault model and the determinism contract.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// StepDuration is the host time of one delay step. Delay faults sleep
// Steps of these on the affected module goroutine; the modelled machine
// time is unaffected.
const StepDuration = time.Millisecond

// Kind enumerates the fault types.
type Kind uint8

const (
	// KindNone is the zero Kind: no fault.
	KindNone Kind = iota
	// KindSendFail fails one delivery transiently; the transport's
	// bounded retry recovers it.
	KindSendFail
	// KindDrop loses one batch on the wire; the sender retransmits after
	// a backoff (indistinguishable from KindSendFail at the fabric level,
	// but counted separately).
	KindDrop
	// KindDup delivers one batch twice; the receiving endpoint discards
	// the second copy before any processing or accounting.
	KindDup
	// KindKill kills the node at the fault's coordinate: this delivery
	// and every later one the node attempts fail permanently, aborting
	// the run.
	KindKill
	// KindDelayGenerator stalls the node's generator module at the start
	// of the level for Steps delay steps.
	KindDelayGenerator
	// KindDelayHandler stalls the node's handler module at the start of
	// the level for Steps delay steps.
	KindDelayHandler
	// KindDelayRelay stalls the node's relay duties when the level's
	// first stage-one envelope arrives, for Steps delay steps.
	KindDelayRelay
)

var kindNames = map[Kind]string{
	KindSendFail:       "sendfail",
	KindDrop:           "drop",
	KindDup:            "dup",
	KindKill:           "kill",
	KindDelayGenerator: "delay-gen",
	KindDelayHandler:   "delay-handler",
	KindDelayRelay:     "delay-relay",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsDelay reports whether the kind stalls a module goroutine (as opposed
// to striking a delivery).
func (k Kind) IsDelay() bool {
	return k == KindDelayGenerator || k == KindDelayHandler || k == KindDelayRelay
}

// WireNames and ChanNames are the wire-kind and channel coordinates of
// delivery faults, indexed by Fault.WireKind and Fault.Channel. They are
// also the comm package's Kind and Channel names, which comm takes from
// here (chaos cannot import comm — comm imports chaos), and the names the
// flight recorder stores.
var (
	WireNames = [4]string{"data", "end", "relay-data", "relay-end"}
	ChanNames = [2]string{"forward", "backward"}
)

// Fault is one scheduled fault.
type Fault struct {
	Kind Kind
	// Node is the struck node: the sender of the faulted delivery, or the
	// node whose module is delayed.
	Node int
	// Level is the BFS level the fault fires in.
	Level int

	// Delivery-fault coordinates: the Op'th batch of Node's (Level,
	// WireKind, Channel) delivery stream (0-based).
	WireKind uint8
	Channel  uint8
	Op       int

	// Steps is the delay magnitude (delay faults only), in StepDuration
	// units.
	Steps int
}

// String renders the fault in the spec grammar ParseFault accepts:
//
//	sendfail@2:l1:data/forward:3   (delivery faults: kind@node:lLEVEL:wire/chan:op)
//	delay-gen@2:l1:5               (delay faults:    kind@node:lLEVEL:steps)
func (f Fault) String() string {
	if f.Kind.IsDelay() {
		return fmt.Sprintf("%s@%d:l%d:%d", f.Kind, f.Node, f.Level, f.Steps)
	}
	return fmt.Sprintf("%s@%d:l%d:%s/%s:%d",
		f.Kind, f.Node, f.Level, WireNames[f.WireKind], ChanNames[f.Channel], f.Op)
}

// ParseFault parses one fault spec (the grammar Fault.String emits).
func ParseFault(s string) (Fault, error) {
	var f Fault
	kindStr, rest, ok := strings.Cut(s, "@")
	if !ok {
		return f, fmt.Errorf("chaos: fault %q: missing '@'", s)
	}
	for k, name := range kindNames {
		if name == kindStr {
			f.Kind = k
		}
	}
	if f.Kind == KindNone {
		return f, fmt.Errorf("chaos: fault %q: unknown kind %q", s, kindStr)
	}
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return f, fmt.Errorf("chaos: fault %q: want node:lLEVEL:coordinate", s)
	}
	var err error
	if f.Node, err = strconv.Atoi(parts[0]); err != nil || f.Node < 0 {
		return f, fmt.Errorf("chaos: fault %q: bad node %q", s, parts[0])
	}
	lvl, lok := strings.CutPrefix(parts[1], "l")
	if f.Level, err = strconv.Atoi(lvl); !lok || err != nil || f.Level < 0 {
		return f, fmt.Errorf("chaos: fault %q: bad level %q", s, parts[1])
	}
	if f.Kind.IsDelay() {
		if f.Steps, err = strconv.Atoi(parts[2]); err != nil || f.Steps <= 0 {
			return f, fmt.Errorf("chaos: fault %q: bad steps %q", s, parts[2])
		}
		return f, nil
	}
	stream, opStr, ok := strings.Cut(parts[2], ":")
	if !ok {
		return f, fmt.Errorf("chaos: fault %q: want wire/chan:op", s)
	}
	if f.Op, err = strconv.Atoi(opStr); err != nil || f.Op < 0 {
		return f, fmt.Errorf("chaos: fault %q: bad op %q", s, opStr)
	}
	wire, chn, ok := strings.Cut(stream, "/")
	if !ok {
		return f, fmt.Errorf("chaos: fault %q: want wire/chan", s)
	}
	found := false
	for i, name := range WireNames {
		if name == wire {
			f.WireKind, found = uint8(i), true
		}
	}
	if !found {
		return f, fmt.Errorf("chaos: fault %q: unknown wire kind %q", s, wire)
	}
	found = false
	for i, name := range ChanNames {
		if name == chn {
			f.Channel, found = uint8(i), true
		}
	}
	if !found {
		return f, fmt.Errorf("chaos: fault %q: unknown channel %q", s, chn)
	}
	return f, nil
}

// Plan is a reproducible fault schedule. Seed records how a random plan
// was generated (provenance only — injection depends solely on Faults).
type Plan struct {
	Seed   int64
	Faults []Fault
}

// String renders the plan as a comma-separated fault spec list, the
// format ParsePlan accepts and the -chaos-plan CLI flags take.
func (p Plan) String() string {
	specs := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		specs[i] = f.String()
	}
	return strings.Join(specs, ",")
}

// Without returns a copy of the plan with one schedule entry removed per
// matching fault in fired. The resume path uses it to strip a kill that
// already fired from the plan before re-running: the checkpoint's level
// precedes the kill's coordinate, so without stripping, the same kill
// would strike the resumed run again.
func (p Plan) Without(fired []Fault) Plan {
	out := Plan{Seed: p.Seed}
	remove := make(map[Fault]int, len(fired))
	for _, f := range fired {
		remove[f]++
	}
	for _, f := range p.Faults {
		if remove[f] > 0 {
			remove[f]--
			continue
		}
		out.Faults = append(out.Faults, f)
	}
	return out
}

// ParsePlan parses a comma-separated fault spec list.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	for _, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		f, err := ParseFault(spec)
		if err != nil {
			return Plan{}, err
		}
		p.Faults = append(p.Faults, f)
	}
	if len(p.Faults) == 0 {
		return Plan{}, fmt.Errorf("chaos: empty plan %q", s)
	}
	return p, nil
}

// splitmix64 is the same tiny deterministic stream the Kronecker sharder
// uses: state advances by the golden-gamma, outputs are finalized.
type splitmix64 struct{ x uint64 }

func (r *splitmix64) next() uint64 {
	r.x += 0x9E3779B97F4A7C15
	z := r.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewRandomPlan derives a fault plan from a seed for a machine of the
// given node count. The same (seed, nodes) always yields the same plan —
// the reproducibility handle behind the -chaos-seed flags. Plans hold one
// to three faults mixing transient wire faults (recovered, run completes),
// kills (run aborts) and module delays, aimed at early levels and low batch
// ordinals so they have a realistic chance to fire on small test graphs.
func NewRandomPlan(seed int64, nodes int) Plan {
	if nodes <= 0 {
		nodes = 1
	}
	rng := splitmix64{x: uint64(seed)}
	p := Plan{Seed: seed}
	n := 1 + int(rng.next()%3)
	for i := 0; i < n; i++ {
		var f Fault
		f.Node = int(rng.next() % uint64(nodes))
		f.Level = int(rng.next() % 4)
		switch roll := rng.next() % 100; {
		case roll < 30:
			f.Kind = KindSendFail
		case roll < 45:
			f.Kind = KindDrop
		case roll < 60:
			f.Kind = KindDup
		case roll < 75:
			f.Kind = KindKill
		case roll < 85:
			f.Kind = KindDelayGenerator
		case roll < 95:
			f.Kind = KindDelayHandler
		default:
			f.Kind = KindDelayRelay
		}
		if f.Kind.IsDelay() {
			f.Steps = 1 + int(rng.next()%8)
		} else {
			switch roll := rng.next() % 100; {
			case roll < 60:
				f.WireKind = 0 // data
			case roll < 80:
				f.WireKind = 1 // end
			case roll < 95:
				f.WireKind = 2 // relay-data
			default:
				f.WireKind = 3 // relay-end
			}
			if rng.next()%100 < 70 {
				f.Channel = 0 // forward
			} else {
				f.Channel = 1 // backward
			}
			f.Op = int(rng.next() % 3)
		}
		p.Faults = append(p.Faults, f)
	}
	return p
}
