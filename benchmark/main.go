// Command benchmark is the repo's benchmark: four seeded traversal workloads,
// each a closed loop of one client whose every op is validated, measured on
// two clocks — the host's (what the simulator costs) and the modelled
// machine's (what the simulated Sunway would do) — and then traced from
// outside, layer by layer. README.md in this directory is the manual.
//
//	go run ./benchmark                      # all workloads, both passes
//	go run ./benchmark -workload bfs-hybrid -trace 0
//	go run ./benchmark -runs 5 -json a.json && go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long the timed phase
// measures before it stops at the next whole pass.
const defaultSeconds = 12

// outDir holds what a run leaves behind (traces, the children's result
// documents). It is inside the working directory, and ignored by git.
const outDir = ".bench_out"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0" untraced pass, "1" traced pass, "both"
	runs     int
	quick    bool
	traceOut string
	jsonOut  string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four, each in its own child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seeds the Kronecker generator and the root sample")
	flag.Float64Var(&o.seconds, "seconds", -1, fmt.Sprintf("length of the timed phase, rounded to whole passes (default %d; one pass with -quick)", defaultSeconds))
	flag.StringVar(&o.trace, "trace", "both", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; both")
	flag.IntVar(&o.runs, "runs", 1, "repeat the untraced pass this many times, each in a fresh process, and record median and quartiles")
	flag.BoolVar(&o.quick, "quick", false, "tiny shapes of all four workloads (scale 10, 4 nodes, 3 ops)")
	flag.StringVar(&o.traceOut, "trace-out", "", "file the traced pass writes its spans to (default "+outDir+"/trace-<workload>.json)")
	flag.StringVar(&o.jsonOut, "json", "", "write the full result document (every metric, every run) to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two result documents: benchmark -compare a.json b.json")
	flag.Parse()

	// Host metrics are sized for a small sandbox: no more runnable benchmark
	// threads than cores, and never more than four.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result documents")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return fmt.Errorf("-trace must be 0, 1 or both")
	}
	if o.runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	if o.seconds < 0 {
		o.seconds = defaultSeconds
		if o.quick {
			o.seconds = 0
		}
	}
	if o.workload != "" && o.runs == 1 {
		w, err := workloadByName(o.workload, o.quick)
		if err != nil {
			return err
		}
		return runWorkload(os.Stdout, w, o)
	}
	return orchestrate(os.Stdout, o)
}

// runWorkload measures one workload in this process and prints its report;
// the last line of output is the machine-readable result.
func runWorkload(out io.Writer, w workload, o options) error {
	doc := newDocument(o)
	wd := &workloadDoc{Name: w.Name, Ops: w.Ops, EndToEnd: map[string]*series{}}
	doc.Workloads = append(doc.Workloads, wd)
	line := resultLine{Metrics: map[string]lineMetric{}}
	printHeader(out, w, o, doc.Env)

	if o.trace != "1" {
		v, m, err := runUntraced(w, o.seed, o.seconds)
		if err != nil {
			return err
		}
		wd.Attempted, wd.Failed = len(m.samples), m.failed
		wd.addRun(v)
		printEndToEnd(out, v, m)
		line.add(endToEnd, v, true)
	}
	if o.trace != "0" {
		tr, err := runTraced(w, o.seed)
		if err != nil {
			return err
		}
		wd.Attempted += tr.attempted
		wd.Failed += tr.failed
		wd.PerLayer = tr.layers
		wd.PlainOpMsP50, wd.ObservedOpMsP50 = tr.baseP50, tr.tracedP50
		printPerLayer(out, tr)
		path := o.traceOut
		if path == "" {
			path = filepath.Join(outDir, "trace-"+w.Name+".json")
		}
		if err := writeSpans(path, w.Name, tr.spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d spans written to %s\n", len(tr.spans), path)
		line.add(perLayer, tr.layers, false)
	}

	if o.jsonOut != "" {
		if err := doc.write(o.jsonOut); err != nil {
			return err
		}
	}
	line.Attempted, line.Failed = wd.Attempted, wd.Failed
	line.Correct = wd.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", data)
	return nil
}

// resultLine is the last line of a single-workload run: the contract with
// the driver that runs BENCHMARK.json's command.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add puts the metrics of defs on the line; gatedOnly keeps the end-to-end
// list to what BENCHMARK.json declares.
func (l *resultLine) add(defs []metricDef, v values, gatedOnly bool) {
	for _, d := range defs {
		if gatedOnly && !d.Gated {
			continue
		}
		l.Metrics[d.Name] = lineMetric{Value: v[d.Name], Unit: d.Unit}
	}
}

// orchestrate runs every requested workload in its own child process — so
// that peak RSS, pools and the heap start clean each time, one child at a
// time — and merges the children's documents.
func orchestrate(out io.Writer, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var ws []workload
	if o.workload != "" {
		w, err := workloadByName(o.workload, o.quick)
		if err != nil {
			return err
		}
		ws = []workload{w}
	} else {
		ws = workloads(o.quick)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	doc := newDocument(o)
	child := func(w workload, trace string) error {
		tmp := filepath.Join(outDir, fmt.Sprintf("child-%d.json", os.Getpid()))
		defer os.Remove(tmp)
		args := []string{
			"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", trace, "-json", tmp,
		}
		if o.quick {
			args = append(args, "-quick")
		}
		if o.traceOut != "" && len(ws) == 1 {
			args = append(args, "-trace-out", o.traceOut)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s (trace %s): %w", w.Name, trace, err)
		}
		part, err := readDocument(tmp)
		if err != nil {
			return err
		}
		doc.merge(part)
		return nil
	}
	// Runs interleave the workloads, so slow drift of the machine spreads
	// over all of them instead of landing on the last.
	if o.trace != "1" {
		for r := 0; r < o.runs; r++ {
			for _, w := range ws {
				if err := child(w, "0"); err != nil {
					return err
				}
			}
		}
	}
	if o.trace != "0" {
		for _, w := range ws {
			if err := child(w, "1"); err != nil {
				return err
			}
		}
	}
	doc.summarize()
	printSummary(out, doc)
	if o.jsonOut != "" {
		return doc.write(o.jsonOut)
	}
	return nil
}

// envInfo says where the numbers were taken.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GitSHA     string `json:"git_sha"`
}

// readEnv asks git for the commit only when a document is being recorded.
func readEnv(withGit bool) envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Go: runtime.Version(), GitSHA: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(l, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if withGit {
		if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.GitSHA = strings.TrimSpace(string(sha))
		}
	}
	return e
}
