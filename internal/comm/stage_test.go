package comm

import (
	"errors"
	"reflect"
	"testing"

	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

// sink is an Endpoint that records every SendMany stream as (dst, pair)
// entries, failing with err from the call numbered failAt (1-based) on.
type sink struct {
	got    []sent
	chunks []int
	calls  int
	failAt int
	err    error
}

type sent struct {
	dst int
	p   Pair
}

func (s *sink) SendMany(ch Channel, runs []DstRun, pairs []Pair) error {
	s.calls++
	if s.failAt > 0 && s.calls >= s.failAt {
		return s.err
	}
	off := 0
	for _, r := range runs {
		for _, p := range pairs[off : off+r.N] {
			s.got = append(s.got, sent{r.Dst, p})
		}
		off += r.N
	}
	s.chunks = append(s.chunks, len(pairs))
	return nil
}

func (*sink) Node() int                  { return 0 }
func (*sink) StartLevel(int, ...Channel) {}
func (*sink) FoldBatches(Channel, Fold)  {}
func (*sink) CloseChannel(Channel) error { return nil }
func (*sink) Recv() Event                { return Event{} }
func (*sink) Reset()                     {}

// lane opens a lane onto the sink.
func (s *sink) lane() *Lane {
	l := new(Lane)
	l.Open(s, ChanForward)
	return l
}

// scanWords sends (bit % 5, {bit, 0}) for every set bit of words[lo:hi], in
// ascending order — the shape of a generator's bitmap scan.
func scanWords(words []uint64, l *Lane, lo, hi int64) error {
	for wi := lo; wi < hi; wi++ {
		for b := int64(0); b < 64; b++ {
			if words[wi]&(1<<uint(b)) == 0 {
				continue
			}
			i := wi<<6 + b
			if err := l.Send(int(i%5), Pair{graph.Vertex(i), 0}); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestWorkersFanoutMatchesSerial: at every width — including more lanes
// than words and shards spanning several hand-off chunks — the endpoint
// receives the serial scan's (dst, pair) stream, after the pairs the lane
// already held, in chunks of at most StageCapPairs; Sent counts them all.
func TestWorkersFanoutMatchesSerial(t *testing.T) {
	const n = 40000
	bm := graph.NewBitmap(n)
	for i := int64(0); i < n; i += 3 {
		bm.Set(i)
	}
	words := bm.Words()
	own := []sent{{4, Pair{-1, -1}}, {1, Pair{-2, -2}}}

	var want []sent
	want = append(want, own...)
	bm.ForEach(func(i int64) { want = append(want, sent{int(i % 5), Pair{graph.Vertex(i), 0}}) })

	for _, k := range []int{1, 2, 3, 8, 1000} {
		s := &sink{}
		l := s.lane()
		for _, o := range own {
			l.Add(o.dst, o.p)
		}
		err := Fanout(l, int64(len(words)), k, words, scanWords)
		if err == nil {
			err = l.Flush()
		}
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(s.got, want) {
			t.Fatalf("k=%d: the endpoint's stream diverges from the serial scan", k)
		}
		for _, c := range s.chunks {
			if c > StageCapPairs {
				t.Fatalf("k=%d: a %d-pair chunk exceeds StageCapPairs", k, c)
			}
		}
		if l.Sent != int64(len(want)) {
			t.Fatalf("k=%d: Sent = %d, want %d", k, l.Sent, len(want))
		}
	}
}

// TestWorkersFanoutStopsOnSinkError: an endpoint failure comes back as the
// fan-out's error, nothing is sent after it, and no lane is left blocked on
// its hand-off channel however much output was still to come.
func TestWorkersFanoutStopsOnSinkError(t *testing.T) {
	boom := errors.New("boom")
	for _, k := range []int{1, 2, 5} {
		leak := testutil.CheckGoroutines(t)
		s := &sink{failAt: 3, err: boom}
		err := Fanout(s.lane(), 1<<20, k, s, func(_ *sink, l *Lane, lo, hi int64) error {
			for i := lo; i < hi; i++ {
				if err := l.Send(int(i%7), Pair{graph.Vertex(i), 0}); err != nil {
					return err
				}
			}
			return nil
		})
		leak()
		if err != boom {
			t.Fatalf("k=%d: fan-out returned %v, want the endpoint's error", k, err)
		}
		if s.calls != 3 || len(s.got) != 2*StageCapPairs {
			t.Fatalf("k=%d: %d sends carrying %d pairs, want the 3rd to fail after 2 full chunks", k, s.calls, len(s.got))
		}
	}
}

// TestWorkersFanoutInlineAllocatesNothing: width 1 scans on the caller's
// lane with no goroutine and no allocation — the serial path every BFS
// benchmark workload runs.
func TestWorkersFanoutInlineAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts mean nothing under -race")
	}
	words := []uint64{0xff, 0xf0f0, 1}
	s := &sink{}
	l := s.lane()
	allocs := testing.AllocsPerRun(100, func() {
		if err := Fanout(l, int64(len(words)), 1, words, scanWords); err != nil {
			t.Fatal(err)
		}
		l.Reset()
	})
	if allocs != 0 {
		t.Fatalf("inline fan-out allocated %.1f objects per call", allocs)
	}
}

// TestWorkersForEachShardCoversRange: the shards partition [0, n) into
// contiguous non-empty ranges, one per lane, at most n of them.
func TestWorkersForEachShardCoversRange(t *testing.T) {
	for _, n := range []int64{0, 1, 5, 64, 1000} {
		for _, k := range []int{1, 3, 4, 8} {
			want := min(int64(k), n)
			if want < 1 {
				want = 1
			}
			ranges := make([][2]int64, want)
			ForEachShard(n, k, func(shard int, lo, hi int64) { ranges[shard] = [2]int64{lo, hi} })
			next := int64(0)
			for s, r := range ranges {
				if r[0] != next || (n > 0 && r[1] <= r[0]) {
					t.Fatalf("n=%d k=%d: shard %d is [%d, %d), want it to start at %d and be non-empty", n, k, s, r[0], r[1], next)
				}
				next = r[1]
			}
			if next != n {
				t.Fatalf("n=%d k=%d: shards end at %d", n, k, next)
			}
		}
	}
}
