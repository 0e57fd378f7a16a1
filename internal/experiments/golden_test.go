package experiments

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick.golden from the current code")

const quickGolden = "testdata/quick.golden"

// TestQuickTablesGolden pins the text of every quick-size table, what
// `swbfs-bench -quick all` prints, byte for byte: a change that means to
// move no modelled number must leave the file as it is, and one that moves
// some regenerates it (make regen-modelled) and shows the moved cells in
// its diff.
func TestQuickTablesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, a := range All {
		tab, err := a.Build(Options{Size: Quick})
		if err != nil {
			t.Fatalf("%s: %v", a.ID, err)
		}
		tab.Print(&got)
	}
	if *updateGolden {
		if err := os.WriteFile(quickGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s: line %d moved\n got %q\nwant %q\n(rerun with -update-golden if the move is intended)", quickGolden, i+1, g, w)
		}
	}
}
