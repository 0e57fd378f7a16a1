package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// document is the full result of an invocation: every metric of every
// workload, every run. -json writes it, -compare reads two of them, and
// baseline.json is one.
type document struct {
	Schema    int            `json:"schema"`
	Env       envInfo        `json:"env"`
	Seed      int64          `json:"seed"`
	Quick     bool           `json:"quick"`
	Seconds   float64        `json:"seconds"`
	Workloads []*workloadDoc `json:"workloads"`
}

const documentSchema = 1

type workloadDoc struct {
	Name string `json:"name"`
	// Ops is the length of one pass.
	Ops int `json:"ops"`
	// Attempted and Failed add up over every run recorded here.
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  values             `json:"per_layer,omitempty"`
	// Median kernel time of the traced pass's ops without and with the
	// observer attached; their ratio is the tracing overhead.
	PlainOpMsP50    float64 `json:"plain_op_ms_p50,omitempty"`
	ObservedOpMsP50 float64 `json:"observed_op_ms_p50,omitempty"`
}

// series is one end-to-end metric of one workload over the recorded runs.
type series struct {
	Unit   string    `json:"unit"`
	Clock  string    `json:"clock,omitempty"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Runs   []float64 `json:"runs"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func (s *series) summarize() {
	s.Median = median(s.Runs)
	s.Q1, s.Q3 = quartiles(s.Runs)
}

func newDocument(o options) *document {
	return &document{
		Schema: documentSchema, Env: readEnv(o.jsonOut != ""),
		Seed: o.seed, Quick: o.quick, Seconds: o.seconds,
	}
}

// addRun records one untraced run's end-to-end values. A metric the run did
// not produce (op_ms_p90 below a hundred samples) gets no entry.
func (w *workloadDoc) addRun(v values) {
	for _, d := range endToEnd {
		x, ok := v[d.Name]
		if !ok {
			continue
		}
		s := w.EndToEnd[d.Name]
		if s == nil {
			s = &series{Unit: d.Unit, Clock: d.Clock, Better: d.Better, Bound: d.Bound}
			w.EndToEnd[d.Name] = s
		}
		s.Runs = append(s.Runs, x)
		s.summarize()
	}
}

func (d *document) workload(name string) *workloadDoc {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// merge folds a child's single-workload document into d.
func (d *document) merge(part *document) {
	for _, pw := range part.Workloads {
		w := d.workload(pw.Name)
		if w == nil {
			d.Workloads = append(d.Workloads, pw)
			continue
		}
		w.Attempted += pw.Attempted
		w.Failed += pw.Failed
		for name, ps := range pw.EndToEnd {
			if s := w.EndToEnd[name]; s != nil {
				s.Runs = append(s.Runs, ps.Runs...)
			} else {
				w.EndToEnd[name] = ps
			}
		}
		if pw.PerLayer != nil {
			w.PerLayer = pw.PerLayer
			w.PlainOpMsP50, w.ObservedOpMsP50 = pw.PlainOpMsP50, pw.ObservedOpMsP50
		}
	}
}

func (d *document) summarize() {
	for _, w := range d.Workloads {
		for _, s := range w.EndToEnd {
			s.summarize()
		}
	}
}

func (d *document) write(path string) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != documentSchema {
		return nil, fmt.Errorf("%s: result schema %d, this program reads %d", path, d.Schema, documentSchema)
	}
	return &d, nil
}
