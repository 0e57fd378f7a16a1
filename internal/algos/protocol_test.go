package algos

import (
	"reflect"
	"testing"

	"swbfs/internal/core"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

// levelsOf returns the recorded levels of any table kernel's result.
func levelsOf(t *testing.T, res any) []perf.LevelStats {
	t.Helper()
	if r, ok := res.(*core.Result); ok {
		return r.Levels
	}
	return reflect.ValueOf(res).Elem().FieldByName("Info").Interface().(*RunInfo).Levels
}

// TestLevelProtocol pins what every kernel's level loop shows an observer,
// on both transports: the live stream is run-start, one level event per
// recorded level in order and carrying that level's direction, then
// run-done; and the flight record brackets every recorded level with a
// round-open and a round-close, plus the open of the terminating level,
// whose statistics sum to zero and which never closes.
func TestLevelProtocol(t *testing.T) {
	g := kron(t, 8, 21)
	wg := testutil.Weighted(t, g, 9)
	root := testutil.FirstConnected(t, g)
	args := ckptArgs(root)
	for _, k := range Kernels {
		for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
			t.Run(k.Name+"/"+transport.String(), func(t *testing.T) {
				cfg := ckptMachine(transport)
				cfg.Obs = &obs.Observer{Progress: obs.NewProgressBroker(), Flight: obs.NewFlightRecorder(0)}
				stream, cancel := cfg.Obs.Progress.Subscribe(1 << 12)
				defer cancel()
				res, err := k.Run(cfg, wg, root, args[k.Name], nil)
				if err != nil {
					t.Fatal(err)
				}
				levels := levelsOf(t, res)
				if len(levels) == 0 {
					t.Fatal("no level recorded")
				}

				var events []obs.LiveEvent
				for drained := false; !drained; {
					select {
					case ev := <-stream:
						events = append(events, ev)
					default:
						drained = true
					}
				}
				if len(events) != len(levels)+2 {
					t.Fatalf("%d live events for %d levels, want %d", len(events), len(levels), len(levels)+2)
				}
				if events[0].Kind != obs.EventRunStart || events[len(events)-1].Kind != obs.EventRunDone {
					t.Errorf("stream opens with %q and ends with %q, want %q and %q",
						events[0].Kind, events[len(events)-1].Kind, obs.EventRunStart, obs.EventRunDone)
				}
				for i, s := range levels {
					ev := events[i+1]
					if ev.Kind != obs.EventLevel || ev.Level != i || ev.Direction != s.Direction {
						t.Errorf("live event %d is %q level %d %q, want %q level %d %q",
							i+1, ev.Kind, ev.Level, ev.Direction, obs.EventLevel, i, s.Direction)
					}
				}

				var opens, closes int
				for _, ev := range cfg.Obs.Flight.Dump().Events {
					switch ev.Kind {
					case obs.FlightRoundOpen:
						opens++
					case obs.FlightRoundClose:
						closes++
					}
				}
				if opens != len(levels)+1 || closes != len(levels) {
					t.Errorf("flight record has %d round-open and %d round-close for %d levels, want %d and %d",
						opens, closes, len(levels), len(levels)+1, len(levels))
				}
			})
		}
	}
}
