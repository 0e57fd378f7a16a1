package graph500

import (
	"slices"
	"testing"

	"swbfs/internal/graph"
)

// FuzzValidate throws arbitrary parent maps at both validators: they must
// never panic, must agree with each other, and must accept the reference
// BFS tree unchanged. The first input byte draws the graph shape from
// validateFamilies (which pins an N that is no multiple of the chunk size
// and a row longer than one chunk); every later byte perturbs one slot, the
// slots strided across the whole vertex range so every chunk is reached.
func FuzzValidate(f *testing.F) {
	fams := validateFamilies(f)
	ref := fams[0].parent
	seed := make([]byte, len(ref))
	for i, p := range ref {
		seed[i] = byte(int64(p) & 0xff)
	}
	f.Add(seed)
	f.Add(make([]byte, len(ref)))
	for i := range fams {
		f.Add([]byte{byte(i), 1, 2, 3, 0, 2, 1})
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		fam := fams[int(raw[0])%len(fams)]
		g, root := fam.g, fam.root
		parent := slices.Clone(fam.parent)
		stride := g.N/251 + 1
		for i, b := range raw[1:] {
			slot := int64(i) * stride % g.N
			switch b % 4 {
			case 0:
				// keep
			case 1:
				parent[slot] = graph.NoVertex
			case 2:
				parent[slot] = graph.Vertex(int64(b) * stride % g.N)
			case 3:
				parent[slot] = graph.Vertex(int64(b) * stride) // possibly out of range
			}
		}
		seqLevel, seqErr := Validate(g, root, parent)
		parLevel, parErr := ValidateParallel(g, root, parent, 4)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("%s: validators disagree: sequential=%v parallel=%v", fam.name, seqErr, parErr)
		}
		if seqErr == nil && !slices.Equal(seqLevel, parLevel) {
			t.Fatalf("%s: accepted with different levels", fam.name)
		}
	})
}
