package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 9}, 5},
		{[]float64{10.5, 9, 12, 11, 30}, 11},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{10.5, 9, 12, 11, 30}, 9.75, 21},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{12, 0},   // the kernels workload: only the median is reported
		{99, 0},   // p90 would leave nine beyond it
		{104, 90}, // the BFS workloads' floor
		{200, 95},
		{1000, 99},
		{10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 104)
	for i := range xs {
		xs[i] = float64(104 - i) // 104 .. 1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 94 {
		t.Errorf("p90 of 1..104 = %v, want 94 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 100); got != 104 {
		t.Errorf("p100 = %v, want 104", got)
	}
}

func TestJudge(t *testing.T) {
	host := metricDef{Name: "op_ms_p50", Clock: clockHost, Better: lower, Bound: 0.10}
	rate := metricDef{Name: "host_mteps", Clock: clockHost, Better: higher, Bound: 0.10}
	exact := metricDef{Name: "net_msgs_per_op", Clock: clockModelled, Better: lower}
	failed, _ := defByName(endToEnd, "failed_ops")
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within bound", host, []float64{100, 101, 102}, []float64{104, 105, 103}, verdictUnchanged},
		{"slower past bound", host, []float64{100, 101, 102}, []float64{120, 121, 119}, verdictWorse},
		{"faster past bound", host, []float64{100, 101, 102}, []float64{80, 81, 79}, verdictBetter},
		{"rate falls", rate, []float64{50, 51, 52}, []float64{40, 41, 39}, verdictWorse},
		{"noisy and interleaved", host, []float64{80, 100, 140, 90, 160}, []float64{85, 150, 170, 95, 120}, verdictUnresolved},
		{"noisy but separated", host, []float64{80, 100, 140, 90, 160}, []float64{30, 40, 35, 50, 45}, verdictBetter},
		{"modelled identical", exact, []float64{1344.59, 1344.59}, []float64{1344.59, 1344.59}, verdictUnchanged},
		{"modelled one more message", exact, []float64{1344.59}, []float64{1344.60}, verdictWorse},
		{"modelled fewer messages", exact, []float64{1344.59}, []float64{1300}, verdictBetter},
		{"first failed op", failed, []float64{0, 0, 0}, []float64{0, 1, 1}, verdictWorse},
		{"still no failed op", failed, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictUnchanged},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
