// Chaos x wire-codec interplay: the adaptive payload codec runs on the
// real transport path, so fault recovery must preserve its bit-identity
// contract too — a completed faulted run matches the fault-free adaptive
// baseline exactly, and duplicated deliveries are discarded before their
// encoded payloads are decoded twice.
package chaos_test

import (
	"errors"
	"reflect"
	"testing"

	"swbfs/internal/chaos"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/testutil"
)

// TestChaosAdaptiveCodec sweeps seeded fault plans through BFS runs with
// the adaptive backward-channel codec on both transports, and through
// top-down-only relay runs with the adaptive codec on every channel — the
// shape in which every relay stage-two batch forwards encoded segments.
// Completed runs must be bit-identical to the fault-free adaptive baseline
// (which itself must match the raw baseline's traversal), and aborts must
// stay clean.
func TestChaosAdaptiveCodec(t *testing.T) {
	g := harnessGraph(t)
	const plans = harnessPlans
	for _, c := range []struct {
		name      string
		transport core.Transport
		everyChan bool // Codec on every channel and no bottom-up level
	}{
		{core.TransportDirect.String(), core.TransportDirect, false},
		{core.TransportRelay.String(), core.TransportRelay, false},
		{"relay-topdown-every-channel", core.TransportRelay, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg, rawCfg := harnessConfig(c.transport), harnessConfig(c.transport)
			cfg.CodecBackward = comm.AdaptiveCodec{}
			if c.everyChan {
				cfg.Codec, cfg.CodecBackward = comm.AdaptiveCodec{}, nil
				cfg.DirectionOptimized, rawCfg.DirectionOptimized = false, false
			}

			base, _, err := runOnce(t, cfg, g)
			if err != nil {
				t.Fatalf("adaptive baseline: %v", err)
			}
			rawBase, _, err := runOnce(t, rawCfg, g)
			if err != nil {
				t.Fatalf("raw baseline: %v", err)
			}
			if !reflect.DeepEqual(base.Parent, rawBase.Parent) {
				t.Fatal("adaptive baseline parent tree differs from raw baseline")
			}

			completed, aborted := 0, 0
			for seed := int64(1); seed <= plans; seed++ {
				plan := chaos.NewRandomPlan(seed, harnessNodes)
				ccfg := cfg
				ccfg.Chaos = &plan

				leak := testutil.CheckGoroutines(t)
				res, _, err := runOnce(t, ccfg, g)
				leak()
				if t.Failed() {
					t.Fatalf("seed %d (%s): goroutine leak", seed, plan)
				}
				if err != nil {
					aborted++
					var ae *core.AbortError
					if !errors.As(err, &ae) {
						t.Fatalf("seed %d (%s): abort is not an AbortError: %v", seed, plan, err)
					}
					continue
				}
				completed++
				if !reflect.DeepEqual(res.Parent, base.Parent) {
					t.Fatalf("seed %d (%s): parent tree differs from fault-free adaptive run", seed, plan)
				}
				if !reflect.DeepEqual(res.Levels, base.Levels) {
					t.Fatalf("seed %d (%s): LevelStats differ from fault-free adaptive run", seed, plan)
				}
			}
			t.Logf("%s: %d completed, %d aborted of %d plans", c.name, completed, aborted, plans)
			if completed == 0 {
				t.Error("no plan completed: the sweep never exercised codec recovery")
			}
			if aborted == 0 {
				t.Error("no plan aborted: the sweep never exercised teardown on the encoded path")
			}
		})
	}
}

// TestChaosDupWithAdaptiveCodec pins the dup-discard ordering on the
// encoded path: a duplicated batch shares one encoded buffer between both
// copies, the receiver drops the duplicate before decoding, and the run
// stays bit-identical — on both transports, for data and relay envelopes.
func TestChaosDupWithAdaptiveCodec(t *testing.T) {
	g := harnessGraph(t)
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			cfg := harnessConfig(transport)
			cfg.Codec = comm.AdaptiveCodec{}
			base, _, err := runOnce(t, cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			spec := "dup@1:l0:data/forward:0,dup@2:l1:data/backward:0"
			if transport == core.TransportRelay {
				spec = "dup@1:l0:relay-data/forward:0,dup@2:l1:relay-data/backward:0"
			}
			plan, err := chaos.ParsePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Chaos = &plan
			res, log, err := runOnce(t, cfg, g)
			if err != nil {
				t.Fatalf("dup run aborted: %v", err)
			}
			if len(log) == 0 {
				t.Fatal("no dup fired")
			}
			if !reflect.DeepEqual(res.Parent, base.Parent) {
				t.Fatal("duplicated encoded delivery perturbed the parent tree")
			}
			if res.Visited != base.Visited {
				t.Fatal("duplicated encoded delivery perturbed the visited set")
			}
		})
	}
}

// TestChaosDropWithAdaptiveCodec: a dropped encoded delivery is
// retransmitted and the run completes bit-identical to the fault-free
// adaptive run.
func TestChaosDropWithAdaptiveCodec(t *testing.T) {
	g := harnessGraph(t)
	cfg := harnessConfig(core.TransportDirect)
	cfg.CodecBackward = comm.AdaptiveCodec{}
	base, _, err := runOnce(t, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.ParsePlan("drop@1:l0:data/forward:0,drop@3:l1:data/backward:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = &plan
	res, log, err := runOnce(t, cfg, g)
	if err != nil {
		t.Fatalf("drop run aborted: %v", err)
	}
	if len(log) == 0 {
		t.Fatal("no drop fired")
	}
	if !reflect.DeepEqual(res.Parent, base.Parent) || !reflect.DeepEqual(res.Levels, base.Levels) {
		t.Fatal("retransmitted encoded run differs from fault-free adaptive run")
	}
}
