package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"swbfs/internal/chaos"
	"swbfs/internal/perf"
)

// sampleCheckpoint builds a representative checkpoint exercising every
// top-level section: machine config, level stats, counters, injections,
// flight state absent (covered by the integration tests), two node
// payloads. Built fresh on every call so determinism tests compare
// independent constructions.
func sampleCheckpoint() *Checkpoint {
	mc := MachineConfig{
		Nodes:              2,
		SuperNodeSize:      1,
		Transport:          "direct",
		Engine:             "MPE",
		DirectionOptimized: true,
		AlphaBits:          math.Float64bits(14.0),
		BetaBits:           math.Float64bits(24.0),
		HubPrefetch:        true,
		SmallMessageMPE:    true,
		Codec:              "raw",
		Partition:          "round-robin",
		GraphN:             8,
		GraphEdges:         16,
	}
	return &Checkpoint{
		Schema:      SchemaVersion,
		Kernel:      "bfs",
		Root:        3,
		Config:      mc,
		Fingerprint: mc.Fingerprint(),
		Level:       2,
		Machine: MachineState{
			Levels: []perf.LevelStats{
				{Level: 0, Direction: "topdown", FrontierVertices: 1, FrontierEdges: 4, Rounds: 1},
				{Level: 1, Direction: "bottomup", FrontierVertices: 4, FrontierEdges: 9, Rounds: 2},
			},
			Policy:     1,
			HubVisited: []uint64{0x2a},
			Injections: []chaos.Fault{{Kind: chaos.KindDrop, Node: 1, Level: 1, Op: 2}},
		},
		Nodes: []NodeState{
			{ID: 0, Data: json.RawMessage(`{"parent":[3,-1,0,3],"visited":[9]}`)},
			{ID: 1, Data: json.RawMessage(`{"parent":[-1,3,-1,0],"visited":[10]}`)},
		},
	}
}

// compactNodes normalizes the node payloads' whitespace: the canonical
// encoder re-indents embedded raw JSON, so after a round trip the bytes
// of NodeState.Data differ in spacing (never in content).
func compactNodes(c *Checkpoint) {
	for i, ns := range c.Nodes {
		var buf bytes.Buffer
		if err := json.Compact(&buf, ns.Data); err == nil {
			c.Nodes[i].Data = json.RawMessage(buf.String())
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := Encode(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of identical checkpoints differ")
	}
	// Field order is part of the canonical form: schema leads, so even a
	// human (or a forward-compatible reader) sees the version first.
	if !strings.HasPrefix(string(a), "{\n  \"schema\": 1,\n  \"kernel\": \"bfs\"") {
		t.Fatalf("canonical encoding does not lead with schema/kernel:\n%s", a[:min(len(a), 120)])
	}
}

// TestGoldenBytes pins the canonical byte format against the committed
// golden file: any codec change that moves a byte is a schema change and
// must bump SchemaVersion (and regenerate testdata/golden.ckpt.json).
func TestGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Encode(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical encoding drifted from testdata/golden.ckpt.json:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRoundTrip(t *testing.T) {
	orig := sampleCheckpoint()
	data, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	compactNodes(back)
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip changed the checkpoint:\n  in:  %+v\n  out: %+v", orig, back)
	}

	// The canonical form is a fixpoint: encoding the decoded checkpoint
	// reproduces the bytes exactly.
	again, err := Encode(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding a decoded checkpoint changed the bytes")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt.json")
	orig := sampleCheckpoint()
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	compactNodes(back)
	if !reflect.DeepEqual(orig, back) {
		t.Fatal("file round trip changed the checkpoint")
	}
}

// TestFailedWriteKeepsPrevious: a write that fails midway — here on a node
// payload that is not JSON — returns an error and leaves the checkpoint
// already at the path whole, with no temporary file beside it.
func TestFailedWriteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt.json")
	good := sampleCheckpoint()
	if err := WriteFile(path, good); err != nil {
		t.Fatal(err)
	}
	bad := sampleCheckpoint()
	bad.Level++
	bad.Nodes[1].Data = json.RawMessage("not json")
	if err := WriteFile(path, bad); err == nil {
		t.Fatal("a checkpoint with a non-JSON node payload was written")
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatalf("the previous checkpoint is gone: %v", err)
	}
	compactNodes(back)
	if !reflect.DeepEqual(good, back) {
		t.Fatal("the failed write changed the previous checkpoint")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries after the failed write, want the checkpoint alone (%v)", len(entries), err)
	}
}

func TestSchemaReject(t *testing.T) {
	c := sampleCheckpoint()
	c.Schema = SchemaVersion + 1
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("unknown schema version accepted")
	} else if !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema rejection does not name the schema: %v", err)
	}
}

func TestFingerprintReject(t *testing.T) {
	c := sampleCheckpoint()
	c.Config.Nodes = 4 // config no longer matches the recorded fingerprint
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint rejection does not name the fingerprint: %v", err)
	}
}

func TestReadGarbage(t *testing.T) {
	for _, s := range []string{"", "not json", "[]", `{"schema":1`} {
		if _, err := Read(strings.NewReader(s)); err == nil {
			t.Fatalf("garbage input %q accepted", s)
		}
	}
}

// TestFloatBits: a Floats field round-trips every IEEE-754 value exactly
// through its bit patterns — including the ones plain JSON floats mangle or
// reject (NaN, infinities, negative zero, subnormals).
func TestFloatBits(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1.0 / 3.0, -14.25,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	back := make([]float64, len(vals))
	load, err := State{Floats("f", back)}.Decode(State{Floats("f", vals)}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	load()
	for i := range vals {
		if math.Float64bits(back[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d: %x round-tripped to %x",
				i, math.Float64bits(vals[i]), math.Float64bits(back[i]))
		}
	}
}

func TestRenderMentionsIdentity(t *testing.T) {
	var b strings.Builder
	if err := Render(&b, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"kernel       bfs", "2 completed", "drop@1:l1:data/forward:2", "node 0", "level 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
}

// TestStateAgree: payloads that differ only in fields nobody declared
// replicated agree, whatever their spacing; a replicated field one node
// holds otherwise, nested in an Object here, is refused with a *StateError
// naming it and the node.
func TestStateAgree(t *testing.T) {
	var round, local int64
	s := State{Object("algo", State{Scalar("round", &round).Replicated(), Scalar("local", &local)})}
	payloads := []json.RawMessage{
		json.RawMessage(`{"algo":{"round":3,"local":1}}`),
		json.RawMessage("{\"algo\": {\n  \"round\": 3,\n  \"local\": 2\n}}"),
	}
	if err := s.Agree(payloads); err != nil {
		t.Fatalf("payloads alike in every replicated field refused: %v", err)
	}
	err := s.Agree(append(payloads, json.RawMessage(`{"algo":{"round":4,"local":1}}`)))
	var se *StateError
	if !errors.As(err, &se) || se.Field != "algo.round" || !strings.Contains(se.Reason, "node 2 holds 4") {
		t.Fatalf("Agree = %v, want a *StateError naming algo.round and node 2", err)
	}
}
