package sw

// MPE-side modelling: the management processing element is a single-threaded
// general-purpose core. It cannot afford system interrupts (~10 us), so MPEs
// and CPE clusters notify each other through memory flags that the peer
// busy-polls (Section 4.2), and inside a cluster the representative CPE
// broadcasts the flag over the register bus.

// FlagNotifyLatencySeconds is the modelled latency of the busy-wait polling
// notification: one main-memory write by the notifier, one polled read by
// the representative CPE, plus a register-bus broadcast across the cluster
// (a row send and a column send reach all 64 CPEs in two stages).
func FlagNotifyLatencySeconds() float64 {
	memory := 2 * float64(MainMemoryLatencyCycles) / ClockHz
	broadcast := float64(MeshRows+MeshCols) / ClockHz
	return memory + broadcast
}

// SmallMessageThresholdBytes is the module-input size below which work is
// done directly on the MPE instead of dispatching a CPE cluster (Section 5:
// 1 KB, "calculated based on the notification overhead and the memory
// access ability difference between the MPEs and the CPE clusters").
const SmallMessageThresholdBytes = 1 << 10
