package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"swbfs/internal/graph"
)

// State is a node's checkpoint state, declared once by the kernel: named
// fields, each bound to one of the node's live slices, bitmaps or scalars.
// Encode captures it as the node payload a checkpoint stores, a JSON object
// with one key per field in declaration order; Decode reads one back and
// checks every field against its live value before anything is written.
type State []Field

// Field is one named entry of a State, built by Slice, Floats, Words, Set,
// Locals, Scalar, Enum or Object.
type Field struct {
	name string
	// value is what Encode writes: the live value in its stored form.
	value func() any
	// decode parses raw and checks it against the live value; the returned
	// load writes it.
	decode func(raw json.RawMessage) (load func(), err error)
}

// StateError refuses a payload a State cannot load: Field names the
// offending field, dotted through Object fields ("algo.value"; "" for the
// payload as a whole), and Reason says what is wrong with it.
type StateError struct {
	Field, Reason string
}

func (e *StateError) Error() string {
	if e.Field == "" {
		return "ckpt: node state: " + e.Reason
	}
	return fmt.Sprintf("ckpt: node state field %q: %s", e.Field, e.Reason)
}

// Encode captures the fields' live values: the payload is their deep copy,
// taken at a boundary where nothing writes them.
func (s State) Encode() json.RawMessage {
	b := []byte{'{'}
	for i, f := range s {
		if i > 0 {
			b = append(b, ',')
		}
		v, _ := json.Marshal(f.value()) // integers, bools, lists of them and payloads Encode wrote always marshal
		b = append(append(b, `"`+f.name+`":`...), v...)
	}
	return append(b, '}')
}

// Decode checks a payload field by field against the live values: every
// field present and well-typed, a slice or bitmap of its live length (no
// bit past the last local), a local list ascending inside the live range,
// an enumeration in range. It writes nothing; load does. Keys no field
// declares are ignored.
func (s State) Decode(raw []byte) (load func(), err error) {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return nil, &StateError{Reason: err.Error()}
	}
	loads := make([]func(), len(s))
	for i, f := range s {
		v, ok := keys[f.name]
		if !ok {
			return nil, &StateError{Field: f.name, Reason: "missing"}
		}
		if loads[i], err = f.decode(v); err != nil {
			se := &StateError{Field: f.name, Reason: err.Error()}
			if errors.As(err, &se) { // a nested Object's
				se.Field = strings.TrimSuffix(f.name+"."+se.Field, ".")
			}
			return nil, se
		}
	}
	return func() {
		for _, load := range loads {
			load()
		}
	}, nil
}

// Then returns f with after run once f is loaded: how a kernel rebuilds
// state derived from the field.
func (f Field) Then(after func()) Field {
	decode := f.decode
	f.decode = func(raw json.RawMessage) (func(), error) {
		load, err := decode(raw)
		if err != nil {
			return nil, err
		}
		return func() { load(); after() }, nil
	}
	return f
}

// field builds a Field stored as a T: check vets a decoded T against the
// live value, load writes it.
func field[T any](name string, value func() any, check func(T) error, load func(T)) Field {
	return Field{name: name, value: value, decode: func(raw json.RawMessage) (func(), error) {
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		if err := check(v); err != nil {
			return nil, err
		}
		return func() { load(v) }, nil
	}}
}

// Slice binds a fixed-length integer or bool slice, one entry per local.
func Slice[T ~int64 | ~bool](name string, s []T) Field {
	return field(name, func() any { return s }, length[T](len(s)), func(v []T) { copy(s, v) })
}

// Floats binds a fixed-length float64 slice, stored as IEEE-754 bit
// patterns: uint64 round-trips exactly through JSON, float64 does not.
func Floats(name string, s []float64) Field {
	bits := func() any {
		out := make([]uint64, len(s))
		for i, x := range s {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	return field(name, bits, length[uint64](len(s)), func(v []uint64) {
		for i, b := range v {
			s[i] = math.Float64frombits(b)
		}
	})
}

// Words binds a bitmap stored as its words.
func Words(name string, bm *graph.Bitmap) Field {
	check := func(v []uint64) error {
		if err := length[uint64](len(bm.Words()))(v); err != nil {
			return err
		}
		if tail := bm.Len() % 64; tail != 0 && v[len(v)-1]>>tail != 0 {
			return fmt.Errorf("a bit set past local %d", bm.Len()-1)
		}
		return nil
	}
	return field(name, func() any { return bm.Words() }, check, bm.LoadWords)
}

// Set binds a bitmap stored as the ascending list of its set locals.
func Set(name string, bm *graph.Bitmap) Field {
	set := func() any {
		var locals []int64
		bm.ForEach(func(l int64) { locals = append(locals, l) })
		return locals
	}
	return field(name, set, ascending(bm.Len()), func(v []int64) {
		bm.Reset()
		for _, l := range v {
			bm.Set(l)
		}
	})
}

// Locals binds a variable-length list of locals in [0, n), ascending and
// each at most once.
func Locals(name string, p *[]int64, n int64) Field {
	return field(name, func() any { return *p }, ascending(n), func(v []int64) { *p = append((*p)[:0], v...) })
}

// Scalar binds an integer or bool scalar.
func Scalar[T ~int | ~int64 | ~bool](name string, p *T) Field {
	return field(name, func() any { return *p }, func(T) error { return nil }, func(v T) { *p = v })
}

// Enum binds an enumeration scalar whose values are [0, n).
func Enum[T ~int](name string, p *T, n T) Field {
	check := func(v T) error {
		if v < 0 || v >= n {
			return fmt.Errorf("%d out of range [0, %d)", v, n)
		}
		return nil
	}
	return field(name, func() any { return *p }, check, func(v T) { *p = v })
}

// Object nests a State under one key: how a driver wraps its kernel's
// payload.
func Object(name string, s State) Field {
	return Field{name: name, value: func() any { return s.Encode() }, decode: func(raw json.RawMessage) (func(), error) { return s.Decode(raw) }}
}

// length checks a list holds n entries (null holds none).
func length[T any](n int) func([]T) error {
	return func(v []T) error {
		if len(v) != n {
			return fmt.Errorf("%d entries, the partition gives %d", len(v), n)
		}
		return nil
	}
}

// ascending checks a list of distinct locals in [0, n), in order.
func ascending(n int64) func([]int64) error {
	return func(v []int64) error {
		for i, l := range v {
			if l < 0 || l >= n {
				return fmt.Errorf("local %d out of range [0, %d)", l, n)
			}
			if i > 0 && l <= v[i-1] {
				return fmt.Errorf("local %d after %d: not ascending", l, v[i-1])
			}
		}
		return nil
	}
}
