package ckpt

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"swbfs/internal/graph"
)

// FuzzCheckpointRoundTrip feeds arbitrary bytes through the reader and
// demands that everything the reader accepts re-encodes canonically: the
// canonical form must parse back, and must be an encoding fixpoint
// (encode ∘ read ∘ encode = encode). The committed corpus under
// testdata/fuzz seeds the fuzzer with valid checkpoints (random bytes
// rarely carry a self-consistent fingerprint); `make fuzz` runs this
// alongside the envelope and bitmap fuzzers.
func FuzzCheckpointRoundTrip(f *testing.F) {
	if seed, err := Encode(sampleCheckpoint()); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"schema":1}`))
	f.Add([]byte("not a checkpoint"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to guarantee
		}
		canon, err := Encode(c)
		if err != nil {
			t.Fatalf("accepted checkpoint does not encode: %v", err)
		}
		back, err := Read(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical encoding does not parse: %v\n%s", err, canon)
		}
		again, err := Encode(back)
		if err != nil {
			t.Fatalf("re-encoding failed: %v", err)
		}
		if !bytes.Equal(canon, again) {
			t.Fatalf("canonical form is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", canon, again)
		}
	})
}

// fuzzLocals is the local count of the fuzzed state: not a multiple of 64,
// so a bitmap's last word has bits past its last local.
const fuzzLocals = 70

// fuzzState is a node state with one field of every kind, bound to fresh
// values.
type fuzzState struct {
	ints    []graph.Vertex
	bools   []bool
	floats  []float64
	words   *graph.Bitmap
	set     *graph.Bitmap
	locals  []int64
	count   int64
	phase   int
	done    bool
	wrapped []int64
}

func newFuzzState() *fuzzState {
	return &fuzzState{
		ints:    make([]graph.Vertex, fuzzLocals),
		bools:   make([]bool, fuzzLocals),
		floats:  make([]float64, fuzzLocals),
		words:   graph.NewBitmap(fuzzLocals),
		set:     graph.NewBitmap(fuzzLocals),
		wrapped: make([]int64, 3),
	}
}

func (s *fuzzState) State() State {
	return State{
		Slice("ints", s.ints),
		Slice("bools", s.bools),
		Floats("floats", s.floats),
		Words("words", s.words),
		Set("set", s.set),
		Locals("locals", &s.locals, fuzzLocals),
		Scalar("count", &s.count),
		Enum("phase", &s.phase, 3),
		Scalar("done", &s.done),
		Object("inner", State{Slice("wrapped", s.wrapped)}),
	}
}

// FuzzStateDecode feeds arbitrary bytes to State.Decode over a field list
// covering every field kind. Each input must either be refused with a
// *StateError, leaving the live values untouched, or load state inside
// the declared bounds: lengths unchanged, no bitmap bit past the last
// local, locals ascending inside the range, the enumeration in range, and
// the loaded state re-encoding to a payload Decode accepts. It must never
// panic. `make fuzz` runs it.
func FuzzStateDecode(f *testing.F) {
	seed := newFuzzState()
	seed.ints[3], seed.bools[69], seed.floats[1] = -7, true, math.Inf(-1)
	seed.words.Set(69)
	seed.set.Set(5)
	seed.set.Set(64)
	seed.locals = []int64{0, 9, 69}
	seed.count, seed.phase, seed.done = 42, 2, true
	f.Add([]byte(seed.State().Encode()))
	f.Add([]byte(newFuzzState().State().Encode()))
	f.Add([]byte(`{"ints":null}`))
	f.Add([]byte("not a payload"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := newFuzzState()
		before := s.State().Encode()
		load, err := s.State().Decode(data)
		if err != nil {
			var se *StateError
			if !errors.As(err, &se) {
				t.Fatalf("refused with %T, want a *StateError: %v", err, err)
			}
			if after := s.State().Encode(); !bytes.Equal(before, after) {
				t.Fatalf("a refused payload changed the state:\n%s\n%s", before, after)
			}
			return
		}
		load()
		if len(s.ints) != fuzzLocals || len(s.bools) != fuzzLocals || len(s.floats) != fuzzLocals || len(s.wrapped) != 3 {
			t.Fatal("a load changed a fixed length")
		}
		for _, bm := range []*graph.Bitmap{s.words, s.set} {
			if w := bm.Words(); len(w) != 2 || w[1]>>(fuzzLocals%64) != 0 {
				t.Fatalf("bitmap words %v hold a bit past local %d", w, fuzzLocals-1)
			}
		}
		for i, l := range s.locals {
			if l < 0 || l >= fuzzLocals || (i > 0 && l <= s.locals[i-1]) {
				t.Fatalf("locals %v not ascending inside [0, %d)", s.locals, fuzzLocals)
			}
		}
		if s.phase < 0 || s.phase >= 3 {
			t.Fatalf("enumeration loaded as %d", s.phase)
		}
		if _, err := newFuzzState().State().Decode(s.State().Encode()); err != nil {
			t.Fatalf("loaded state re-encodes to a refused payload: %v", err)
		}
	})
}
