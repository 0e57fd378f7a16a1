package testutil

import (
	"reflect"
	"sync"
)

// StaleFields names the fields of the struct *used whose contents differ
// from the same field of *fresh, skipping the ones in keep. It is how the
// run-reset tests ask "does a recycled value equal a freshly built one":
// contents are compared, not capacity — a nil and an emptied slice or map
// are equal — pointers are followed (cycles cut), and what carries no run
// state by construction (sync.Cond internals, funcs, channels) is ignored.
// An embedded struct's fields count as the outer struct's own: they are
// compared, named and kept one by one. Unexported fields are read, never
// set, so no unsafe is involved.
func StaleFields(fresh, used any, keep ...string) []string {
	a, b := reflect.ValueOf(fresh).Elem(), reflect.ValueOf(used).Elem()
	skip := map[string]bool{}
	for _, name := range keep {
		if _, ok := a.Type().FieldByName(name); !ok {
			return []string{name + " (listed but not a field)"}
		}
		skip[name] = true
	}
	seen := map[[2]uintptr]bool{}
	var stale []string
	var walk func(a, b reflect.Value)
	walk = func(a, b reflect.Value) {
		for i := 0; i < a.NumField(); i++ {
			switch f := a.Type().Field(i); {
			case skip[f.Name]:
			case f.Anonymous && f.Type.Kind() == reflect.Struct:
				walk(a.Field(i), b.Field(i))
			case !sameContents(a.Field(i), b.Field(i), seen):
				stale = append(stale, f.Name)
			}
		}
	}
	walk(a, b)
	return stale
}

var condType = reflect.TypeOf(sync.Cond{})

func sameContents(a, b reflect.Value, seen map[[2]uintptr]bool) bool {
	switch a.Kind() {
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		pair := [2]uintptr{a.Pointer(), b.Pointer()}
		if pair[0] == pair[1] || seen[pair] || a.Type().Elem() == condType {
			return true
		}
		seen[pair] = true
		return sameContents(a.Elem(), b.Elem(), seen)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return a.Elem().Type() == b.Elem().Type() && sameContents(a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameContents(a.Field(i), b.Field(i), seen) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameContents(a.Index(i), b.Index(i), seen) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !sameContents(it.Value(), bv, seen) {
				return false
			}
		}
		return true
	default: // funcs, channels, unsafe pointers
		return true
	}
}
