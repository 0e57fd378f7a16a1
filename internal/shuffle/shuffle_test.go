package shuffle

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"swbfs/internal/sw"
)

func TestDefaultLayout(t *testing.T) {
	l := DefaultLayout()
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if l.NumProducers() != 32 || l.NumRouters() != 16 || l.NumConsumers() != 16 {
		t.Fatalf("role counts = %d/%d/%d, want 32/16/16",
			l.NumProducers(), l.NumRouters(), l.NumConsumers())
	}
	// Figure 6: columns 0-3 producers, 4-5 routers, 6-7 consumers.
	for cpe := 0; cpe < sw.CPEsPerCluster; cpe++ {
		want := Producer
		switch col := sw.Col(cpe); {
		case col == 4 || col == 5:
			want = Router
		case col >= 6:
			want = Consumer
		}
		if got := l.Role(cpe); got != want {
			t.Fatalf("Role(%d) = %v, want %v", cpe, got, want)
		}
	}
	if len(l.ProducerIDs()) != 32 || len(l.ConsumerIDs()) != 16 {
		t.Fatal("ID lists wrong length")
	}
}

func TestLayoutValidateRejects(t *testing.T) {
	bad := []Layout{
		{ProducerCols: 0, RouterUpCol: 0, RouterDownCol: 1},
		{ProducerCols: 6, RouterUpCol: 6, RouterDownCol: 7}, // no consumers
		{ProducerCols: 4, RouterUpCol: 5, RouterDownCol: 6}, // routers misplaced
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layout %+v accepted", l)
		}
	}
}

func TestConsumerOwnershipDisjoint(t *testing.T) {
	l := DefaultLayout()
	// Every destination maps to exactly one consumer; consumer CPEs are in
	// the consumer columns.
	for dest := 0; dest < 1024; dest++ {
		cpe := l.ConsumerCPE(dest)
		if l.Role(cpe) != Consumer {
			t.Fatalf("ConsumerCPE(%d) = %d which is a %v", dest, cpe, l.Role(cpe))
		}
		idx := l.ConsumerIndex(dest)
		if idx < 0 || idx >= l.NumConsumers() {
			t.Fatalf("ConsumerIndex(%d) = %d out of range", dest, idx)
		}
	}
}

func randomRecords(rng *rand.Rand, n, numDest int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Dest:    rng.Intn(numDest),
			Payload: [2]uint64{rng.Uint64(), rng.Uint64()},
		}
	}
	return recs
}

func TestRunMeshDeliversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := DefaultLayout()
	records := randomRecords(rng, 500, 64)
	res, err := RunMesh(l, records, 64)
	if err != nil {
		t.Fatalf("RunMesh: %v", err)
	}
	// Multiset equality with the input, and ownership respected.
	count := func(rs []Record) map[Record]int {
		m := make(map[Record]int)
		for _, r := range rs {
			m[r]++
		}
		return m
	}
	want := count(records)
	got := make(map[Record]int)
	for idx, out := range res.ByConsumer {
		for _, r := range out {
			if l.ConsumerIndex(r.Dest) != idx {
				t.Fatalf("record for dest %d landed at consumer %d", r.Dest, idx)
			}
			got[r]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("distinct records %d, want %d", len(got), len(want))
	}
	for r, n := range want {
		if got[r] != n {
			t.Fatalf("record %v count %d, want %d", r, got[r], n)
		}
	}
	if res.Stats.RegisterTransfers == 0 {
		t.Fatal("no register transfers recorded")
	}
}

func TestRunMeshEmptyInput(t *testing.T) {
	res, err := RunMesh(DefaultLayout(), nil, 16)
	if err != nil {
		t.Fatalf("RunMesh on empty input: %v", err)
	}
	for _, out := range res.ByConsumer {
		if len(out) != 0 {
			t.Fatal("records materialized from nothing")
		}
	}
}

func TestRunMeshRejectsBadInput(t *testing.T) {
	if _, err := RunMesh(DefaultLayout(), []Record{{Dest: 99}}, 10); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if _, err := RunMesh(DefaultLayout(), nil, 0); err == nil {
		t.Fatal("zero destinations accepted")
	}
}

func TestRunMeshSPMOverflow(t *testing.T) {
	// More destinations than the consumers' SPM can buffer must fail with
	// an SPM overflow — the Section 4.3 limit of ~1024 destinations.
	max := sw.MaxDirectDestinations(DefaultLayout().NumConsumers(), sw.DMASaturationChunk)
	_, err := RunMesh(DefaultLayout(), []Record{{Dest: 0}}, max+DefaultLayout().NumConsumers())
	var overflow *sw.ErrSPMOverflow
	if !errors.As(err, &overflow) {
		t.Fatalf("error = %v, want SPM overflow", err)
	}
	// Exactly at the limit it must work.
	if _, err := RunMesh(DefaultLayout(), []Record{{Dest: 0}}, max); err != nil {
		t.Fatalf("at-limit run failed: %v", err)
	}
}

// TestMeshNeverDeadlocks is the central safety property of Section 4.3: for
// arbitrary record streams, the producer/router/consumer arrangement
// completes without deadlock.
func TestMeshNeverDeadlocks(t *testing.T) {
	f := func(seed int64, nRecords uint16, destSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numDest := int(destSeed)%128 + 1
		records := randomRecords(rng, int(nRecords)%800, numDest)
		_, err := RunMesh(DefaultLayout(), records, numDest)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestModelBandwidthNearPaper(t *testing.T) {
	// Section 4.3: 10 GB/s measured out of 14.5 GB/s theoretical. The
	// closed-form model must land in that neighbourhood and below the
	// ceiling.
	bw := ModelBandwidth(DefaultLayout())
	if bw > sw.ShuffleTheoreticalBandwidth {
		t.Fatalf("model %.2f GB/s exceeds the theoretical ceiling %.2f",
			bw/1e9, sw.ShuffleTheoreticalBandwidth/1e9)
	}
	if bw < 0.6*sw.ShuffleMeasuredBandwidth || bw > 1.4*sw.ShuffleMeasuredBandwidth {
		t.Fatalf("model %.2f GB/s far from the measured 10 GB/s", bw/1e9)
	}
}

func TestMeshThroughputPlausible(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-level throughput run")
	}
	rng := rand.New(rand.NewSource(9))
	records := randomRecords(rng, 8000, 64)
	res, err := RunMesh(DefaultLayout(), records, 64)
	if err != nil {
		t.Fatalf("RunMesh: %v", err)
	}
	bw := res.Throughput()
	// The cycle simulator must land in the same regime as the paper's
	// measurement: single-digit-to-teens GB/s, below the ceiling.
	if bw < 2e9 || bw > sw.ShuffleTheoreticalBandwidth*1.15 {
		t.Fatalf("mesh throughput %.2f GB/s implausible", bw/1e9)
	}
}
