package comm

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"swbfs/internal/graph"
)

// TestRawCodecSize: raw is the nil codec, and a raw payload is charged 16
// bytes per pair.
func TestRawCodecSize(t *testing.T) {
	if c, err := CodecByName("raw"); c != nil || err != nil {
		t.Fatalf("CodecByName(raw) = %v, %v; want the nil codec", c, err)
	}
	b := Batch{Kind: KindData, Pairs: make([]Pair, 10)}
	if got := b.ByteSize() - batchHeaderBytes; got != 160 {
		t.Fatalf("raw payload size = %d, want 160", got)
	}
}

// TestVarintDeltaCompressesClusteredDestinations: on the BFS regime —
// destinations owned by one node are dense multiples, sources arbitrary
// but small-ish IDs — the adaptive codec picks the varint-delta layout and
// it pays.
func TestVarintDeltaCompressesClusteredDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pairs := make([]Pair, 1000)
	for i := range pairs {
		pairs[i] = Pair{
			graph.Vertex(rng.Int63n(1 << 20)),    // source
			graph.Vertex(rng.Int63n(1<<16) * 16), // clustered dest
		}
	}
	raw := int64(len(pairs)) * PairBytes
	enc, format := AdaptiveCodec{}.EncodePayload(nil, ChanForward, pairs)
	if format != FormatVarintDelta {
		t.Fatalf("clustered destinations encoded as %s, want varint-delta", format)
	}
	compressed := int64(len(enc))
	if compressed >= raw {
		t.Fatalf("varint-delta %d B >= raw %d B", compressed, raw)
	}
	if compressed < raw/10 {
		t.Fatalf("varint-delta %d B implausibly small vs %d B", compressed, raw)
	}
}

func TestVarintDeltaEmpty(t *testing.T) {
	if enc, _ := (AdaptiveCodec{}).EncodePayload(nil, ChanForward, nil); len(enc) != 0 {
		t.Fatalf("empty payload size = %d", len(enc))
	}
}

// Property: the varint-delta layout is positive for non-empty payloads and
// never exceeds a generous bound (the tag byte, then 10 bytes per varint,
// two per pair).
func TestVarintDeltaBounds(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) < 2 {
			return true
		}
		pairs := make([]Pair, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			pairs = append(pairs, Pair{graph.Vertex(raw[i]), graph.Vertex(raw[i+1])})
		}
		enc := layouts(ChanForward, pairs)[FormatVarintDelta]
		return len(enc) > 1 && len(enc) <= 1+len(pairs)*20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecReducesNetworkTraffic: the same exchange accounts less traffic
// under compression, and delivery stays lossless.
func TestCodecReducesNetworkTraffic(t *testing.T) {
	run := func(codec PayloadCodec) (int64, map[int]map[Pair]int) {
		net := mustNetwork(t, Config{Nodes: 8, SuperNodeSize: 4, BatchBytes: 256, Codec: codec})
		eps := make([]Endpoint, 8)
		for i := range eps {
			eps[i] = NewDirectEndpoint(net, i)
		}
		sent, got, err := exchange(t, net, eps, 400, 77)
		if err != nil {
			t.Fatal(err)
		}
		compareExchange(t, sent, got)
		return net.Counters.NetworkBytes(), got
	}
	rawBytes, rawGot := run(nil)
	zipBytes, zipGot := run(AdaptiveCodec{})
	if zipBytes >= rawBytes {
		t.Fatalf("compressed traffic %d >= raw %d", zipBytes, rawBytes)
	}
	// Lossless: identical delivered multisets.
	for node := range rawGot {
		if len(rawGot[node]) != len(zipGot[node]) {
			t.Fatalf("node %d delivery differs under compression", node)
		}
	}
}

// TestCodecConcurrentSafety: the codec path runs under concurrent sends.
func TestCodecConcurrentSafety(t *testing.T) {
	net := mustNetwork(t, Config{Nodes: 4, SuperNodeSize: 2, Codec: AdaptiveCodec{}})
	var wg sync.WaitGroup
	eps := make([]*DirectEndpoint, 4)
	for i := range eps {
		eps[i] = NewDirectEndpoint(net, i)
		eps[i].StartLevel(0, ChanForward)
	}
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := sendTo(eps[i], ChanForward, (i+j)%4, Pair{graph.Vertex(j), graph.Vertex(j)}); err != nil {
					t.Error(err)
					return
				}
			}
			if err := eps[i].CloseChannel(ChanForward); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				ev := eps[i].Recv()
				if ev.Type == EvChannelClosed {
					return
				}
				if ev.Type == EvError {
					t.Error(ev.Err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
