package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestEdgesTextRoundTrip(t *testing.T) {
	edges := []Edge{{From: 0, To: 5}, {From: 3, To: 3}, {From: 7, To: 1}}
	var buf bytes.Buffer
	if err := WriteEdgesText(&buf, edges); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgesText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("%d edges, want %d", len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
}

func TestReadEdgesTextTolerant(t *testing.T) {
	in := "# comment\n\n1 2\n3\t4\n  5   6  \n"
	got, err := ReadEdgesText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{From: 1, To: 2}, {From: 3, To: 4}, {From: 5, To: 6}}
	if len(got) != len(want) {
		t.Fatalf("%d edges", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %v", i, got[i])
		}
	}
}

func TestReadEdgesTextRejects(t *testing.T) {
	for _, in := range []string{"1\n", "1 2 3\n", "a b\n", "1 x\n"} {
		if _, err := ReadEdgesText(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestEdgesBinaryRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{From: Vertex(raw[i]), To: Vertex(raw[i+1])})
		}
		var buf bytes.Buffer
		if err := WriteEdgesBinary(&buf, edges); err != nil {
			return false
		}
		got, err := ReadEdgesBinary(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgesBinaryTruncated(t *testing.T) {
	if _, err := ReadEdgesBinary(bytes.NewReader(make([]byte, 20))); err == nil {
		t.Fatal("truncated input accepted")
	}
}
