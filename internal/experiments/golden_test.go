package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick.golden and EXPERIMENTS.md's generated tables from the current code")

const (
	quickGolden    = "testdata/quick.golden"
	experimentsDoc = "../../EXPERIMENTS.md"
)

// genBlock is one generated table of EXPERIMENTS.md: the artifact's ID in
// the opening marker, its default-size markdown up to the closing one.
var genBlock = regexp.MustCompile(`(?s)<!-- gen:([a-z0-9]+) -->\n(.*?)<!-- /gen -->`)

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
	checkLines(t, quickGolden, got.Bytes(), want)
}

// TestExperimentsDocGenerated rebuilds every table EXPERIMENTS.md marks as
// generated (between `<!-- gen:<id> -->` and `<!-- /gen -->`) at default
// size, what `swbfs-bench -format markdown <id>` prints, and holds the
// file to it byte for byte; the prose outside the markers is hand-written.
// -update-golden (make regen-modelled) rewrites the marked blocks.
func TestExperimentsDocGenerated(t *testing.T) {
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	blocks := genBlock.FindAllSubmatchIndex(doc, -1)
	if len(blocks) == 0 {
		t.Fatalf("%s marks no generated table", experimentsDoc)
	}
	var out bytes.Buffer
	at := 0
	for _, m := range blocks {
		id := string(doc[m[2]:m[3]])
		a, ok := artifactByID(id)
		if !ok {
			t.Fatalf("%s: gen:%s names no artifact", experimentsDoc, id)
		}
		tab, err := a.Build(Options{Size: Default})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var md bytes.Buffer
		if err := tab.WriteMarkdown(&md); err != nil {
			t.Fatal(err)
		}
		if !*updateGolden {
			checkLines(t, fmt.Sprintf("%s gen:%s", experimentsDoc, id), md.Bytes(), doc[m[4]:m[5]])
		}
		out.Write(doc[at:m[4]])
		out.Write(md.Bytes())
		at = m[5]
	}
	out.Write(doc[at:])
	if *updateGolden {
		if err := os.WriteFile(experimentsDoc, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func artifactByID(id string) (Artifact, bool) {
	for _, a := range All {
		if a.ID == id {
			return a, true
		}
	}
	return Artifact{}, false
}

// checkLines fails on the first line where got and want differ.
func checkLines(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s: line %d moved\n got %q\nwant %q\n(rerun with -update-golden if the move is intended)", name, i+1, g, w)
		}
	}
}
