package main

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times the untraced pass sets the workload up;
// setup_s is the median, which keeps a single slow page-fault storm from
// deciding the metric.
const setupRepeats = 3

// measured is the outcome of a workload's timed phase.
type measured struct {
	samples []opSample // every timed op, pass after pass
	passes  int
	wall    time.Duration
	// Heap traffic of the timed phase (runtime.MemStats deltas).
	allocBytes, mallocs uint64
	failed              int
	failures            []string // the first few, for the report
}

func (m *measured) fail(op int, err error) {
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, fmt.Sprintf("op %d: %v", op, err))
	}
}

// warmup runs the first ops untimed so that pools, FIFOs and lazily sized
// buffers reach steady state, then collects the garbage of getting there.
func (p *pass) warmup() {
	for i := 0; i < p.inst.w.Warmup; i++ {
		p.runOp(i)
	}
	p.first = kernelsFirst{}
	runtime.GC()
}

// timedPhase runs whole passes over the workload's op list until about
// `seconds` have been measured (at least one pass; the count is rounded to
// the nearest whole pass so that every op list is complete). Ops of a later
// pass repeat ops of the first, and must reproduce their modelled
// statistics exactly.
func (p *pass) timedPhase(seconds float64) measured {
	var m measured
	ops := p.inst.w.Ops
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for {
		for i := 0; i < ops; i++ {
			s := p.runOp(i)
			if s.err == nil && m.passes > 0 && !reflect.DeepEqual(s.m, m.samples[i].m) {
				s.err = fmt.Errorf("modelled statistics differ from the first pass")
			}
			if s.err != nil {
				m.fail(i, s.err)
			}
			m.samples = append(m.samples, s)
		}
		m.passes++
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(m.passes)/2 >= seconds {
			break
		}
	}
	m.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	m.mallocs = after.Mallocs - before.Mallocs

	// Replay the first two ops once more, untimed: same seed and
	// configuration must give the same modelled machine.
	for i := 0; i < min(2, ops); i++ {
		if m.samples[i].err != nil {
			continue
		}
		if s := p.runOp(i); s.err != nil {
			m.fail(i, fmt.Errorf("replay: %w", s.err))
		} else if !reflect.DeepEqual(s.m, m.samples[i].m) {
			m.fail(i, fmt.Errorf("replay produced different modelled statistics"))
		}
	}
	return m
}

// endToEndValues folds a timed phase into the end-to-end metrics.
func endToEndValues(w workload, m measured, setups []time.Duration) values {
	var kernelMs, validateMs []float64
	var edges, kernelSec float64
	for _, s := range m.samples {
		if s.err != nil {
			continue
		}
		kernelMs = append(kernelMs, s.kernel.Seconds()*1e3)
		validateMs = append(validateMs, s.validate.Seconds()*1e3)
		edges += float64(s.m.Edges)
		kernelSec += s.kernel.Seconds()
	}

	// Modelled metrics come from the first pass alone: later passes repeat
	// it, and a sum over a different number of copies would round
	// differently.
	var invGteps, mEdges, netBytes, netMsgs float64
	var mOps, maxConn int
	for _, s := range m.samples[:min(w.Ops, len(m.samples))] {
		if s.err != nil {
			continue
		}
		mOps++
		mEdges += float64(s.m.Edges)
		invGteps += s.m.Seconds / float64(s.m.Edges)
		netBytes += float64(s.m.netBytes())
		netMsgs += float64(s.m.netMessages())
		maxConn = max(maxConn, s.m.MaxConn)
	}

	var setupSec []float64
	for _, d := range setups {
		setupSec = append(setupSec, d.Seconds())
	}
	timedOps := float64(len(m.samples))
	v := values{
		"host_mteps":         ratio(edges, kernelSec) / 1e6,
		"op_ms_p50":          median(kernelMs),
		"validate_ms_p50":    median(validateMs),
		"run_s":              m.wall.Seconds() / float64(max(m.passes, 1)),
		"setup_s":            median(setupSec),
		"alloc_mb_per_op":    ratio(float64(m.allocBytes), timedOps) / (1 << 20),
		"allocs_per_op":      ratio(float64(m.mallocs), timedOps),
		"peak_rss_mb":        peakRSSMB(),
		"modelled_gteps":     ratio(float64(mOps), invGteps) / 1e9,
		"net_bytes_per_edge": ratio(netBytes, mEdges),
		"net_msgs_per_op":    ratio(netMsgs, float64(mOps)),
		"max_connections":    float64(maxConn),
		"failed_ops":         float64(m.failed),
	}
	if highestPercentile(len(kernelMs)) >= 90 {
		v["op_ms_p90"] = percentile(kernelMs, 90)
	}
	return v
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runUntraced is the end-to-end measurement of one workload: set-up (several
// times, the last one kept), warm-up, the timed phase, no observer attached.
func runUntraced(w workload, seed int64, seconds float64) (values, measured, error) {
	var inst *instance
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		inst = nil
		runtime.GC() // the previous graph is garbage; do not let it double the peak
		next, st, err := setup(w, seed, nil, -1)
		if err != nil {
			return nil, measured{}, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		inst = next
		setups = append(setups, st.total())
	}
	inst.prepareOracles()
	p := &pass{inst: inst, runner: inst.runner}
	p.warmup()
	m := p.timedPhase(seconds)
	return endToEndValues(w, m, setups), m, nil
}
