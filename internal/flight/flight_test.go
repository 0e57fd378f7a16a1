package flight

import (
	"bytes"
	"strings"
	"testing"

	"swbfs/internal/chaos"
	"swbfs/internal/obs"
)

func sampleDump() *obs.FlightDump {
	fr := obs.NewFlightRecorder(0)
	fr.SetStreamNames([]string{"data", "end"}, []string{"forward", "backward"})
	fr.BeginRun(17, "bfs", 2, "direct")
	fr.Send(1, 0, 0, 3, 0, 0, 0, obs.NoEnd, "")
	fr.Send(0, 1, 0, 5, 1, 0, 0, obs.NoEnd, "")
	fr.Recv(0, 1, 0, 3, 0, 0, obs.NoEnd)
	fr.Inject(0, 0, "sendfail@0:l0:data/forward:0")
	fr.DupDrop(1, 0, 0, 5, 0, 0, obs.NoEnd)
	return fr.Dump()
}

func TestRenderMarks(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, sampleDump()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"run 0: kernel=bfs root=17 nodes=2 transport=direct",
		"[emergent]", // the retried send has no matching fault
		"[injected]", // the inject line
		"dup-drop",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRenderMarksCarriedEndDup: a dup scheduled on an End that travelled
// on a data batch is the injected explanation of that batch's dup-drop.
func TestRenderMarksCarriedEndDup(t *testing.T) {
	fr := obs.NewFlightRecorder(0)
	fr.SetStreamNames([]string{"data", "end"}, []string{"forward", "backward"})
	fr.BeginRun(17, "bfs", 2, "direct")
	fr.Send(0, 1, 0, 2, 0, 0, 0, 1, "dup@0:l0:end/forward:0")
	fr.Inject(0, 0, "dup@0:l0:end/forward:0")
	fr.Recv(1, 0, 0, 2, 0, 0, 1)
	fr.DupDrop(1, 0, 0, 2, 0, 0, 1)
	var buf bytes.Buffer
	if err := Render(&buf, fr.Dump()); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "dup-drop data+end/forward <- 0 op 1 (2 pairs) [injected]") {
		t.Fatalf("the carried End's dup-drop is not marked injected:\n%s", out)
	}
}

func TestDiff(t *testing.T) {
	a, b := sampleDump(), sampleDump()
	var buf bytes.Buffer
	if n, err := Diff(&buf, a, b, "a", "b"); err != nil || n != 0 {
		t.Fatalf("identical dumps diff to %d (%v):\n%s", n, err, buf.String())
	}

	// Perturb one payload and drop one event: one changed slot, one
	// one-sided slot.
	b.Events[1].Pairs++
	b.Events = b.Events[:len(b.Events)-1]
	buf.Reset()
	n, err := Diff(&buf, a, b, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("diff found %d differences, want 2:\n%s", n, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "only in a") || !strings.Contains(out, "changed") {
		t.Fatalf("diff output lacks categories:\n%s", out)
	}
}

func TestReconcile(t *testing.T) {
	d := sampleDump()
	f, err := chaos.ParseFault("sendfail@0:l0:data/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := Reconcile(d, []chaos.Fault{f}); err != nil {
		t.Fatal(err)
	}
	if err := Reconcile(d, nil); err == nil {
		t.Fatal("extra inject event reconciled against an empty log")
	}
	kill, err := chaos.ParseFault("kill@1:l2:data/forward:3")
	if err != nil {
		t.Fatal(err)
	}
	if err := Reconcile(d, []chaos.Fault{kill}); err == nil {
		t.Fatal("mismatched fault specs reconciled")
	}
	if err := Reconcile(&obs.FlightDump{Schema: obs.FlightSchemaVersion}, nil); err == nil {
		t.Fatal("runless dump reconciled")
	}
}
