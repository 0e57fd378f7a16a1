package comm

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

// densePairs is the bottom-up regime: every local vertex queries, so the
// key column walks a dense consecutive range while the other column holds
// arbitrary remote IDs.
func densePairs(n int) []Pair {
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{graph.Vertex(1<<40 + int64(i)*3), graph.Vertex(int64(i))}
	}
	return ps
}

// hugeSparsePairs have IDs near the top of the vertex space with wide
// gaps, so every varint costs more than the 8 raw bytes it replaces.
func hugeSparsePairs(n int) []Pair {
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{
			graph.Vertex(int64(1)<<61 + int64(i)*(int64(1)<<40)),
			graph.Vertex(int64(1)<<60 + int64(i)*(int64(1)<<35)),
		}
	}
	return ps
}

// sortByColumn orders pairs by (key, other) — the canonical order every
// tagged format decodes to — with the standard library's comparison sort:
// the oracle the encoder's bucket scatter is held to.
func sortByColumn(ps []Pair, key int) {
	slices.SortFunc(ps, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a[key], b[key]), cmp.Compare(a[1-key], b[1-key]))
	})
}

// layouts encodes pairs in every tagged layout directly through
// appendTagged, keyed on the channel's key column as AdaptiveCodec keys
// it. The bitmap is left out where it would exceed the raw layout, the
// identity bound: a batch spanning the whole vertex space would need 2^58
// bitmap words.
func layouts(ch Channel, pairs []Pair) map[WireFormat][]byte {
	out := map[WireFormat][]byte{}
	if len(pairs) == 0 {
		return out
	}
	key := keyColumn(ch)
	s := getScratch(pairs, key)
	defer s.release()
	z := sizeOrdered(s.ps, key)
	for f := FormatRaw; f < numWireFormats; f++ {
		if f != FormatBitmap || z.size[FormatBitmap] <= z.size[FormatRaw] {
			out[f] = appendTagged(nil, f, s.ps, key, z)
		}
	}
	return out
}

// encodings is layouts keyed by format name, plus the adaptive codec's
// pick under "adaptive".
func encodings(ch Channel, pairs []Pair) map[string][]byte {
	out := map[string][]byte{}
	for f, enc := range layouts(ch, pairs) {
		out[f.String()] = enc
	}
	out["adaptive"], _ = AdaptiveCodec{}.EncodePayload(nil, ch, pairs)
	return out
}

// TestAdaptiveFormatCrossover pins the exact pair counts where the
// adaptive codec flips formats on two reference distributions. The
// thresholds are properties of the wire format (tag + header overhead
// amortization), so a change here means the format itself changed.
func TestAdaptiveFormatCrossover(t *testing.T) {
	var codec AdaptiveCodec
	cases := []struct {
		name  string
		pairs func(int) []Pair
		n     int
		want  WireFormat
	}{
		// Dense consecutive keys: varint-delta wins while the bitmap's
		// word/base overhead dominates, bitmap from 12 pairs on.
		{"dense-last-varint", densePairs, 11, FormatVarintDelta},
		{"dense-first-bitmap", densePairs, 12, FormatBitmap},
		// Huge sparse IDs: varints cost ~9-10 bytes each, so raw wins
		// until delta encoding amortizes the first absolute key at 4 pairs.
		{"sparse-last-raw", hugeSparsePairs, 3, FormatRaw},
		{"sparse-first-varint", hugeSparsePairs, 4, FormatVarintDelta},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pairs := tc.pairs(tc.n)
			enc, format := codec.EncodePayload(nil, ChanForward, pairs)
			if format != tc.want {
				t.Fatalf("%d pairs encoded as %s, want %s", tc.n, format, tc.want)
			}
			if tagFmt := WireFormat(enc[0] & tagFormatMask); tagFmt != tc.want {
				t.Fatalf("tag byte says %s, want %s", tagFmt, tc.want)
			}
		})
	}
}

// TestAdaptivePicksCheapest: for arbitrary payloads the adaptive encoding
// is never larger than any single layout's.
func TestAdaptivePicksCheapest(t *testing.T) {
	var adaptive AdaptiveCodec
	f := func(raw []byte, backward bool) bool {
		ch := ChanForward
		if backward {
			ch = ChanBackward
		}
		pairs := pairsFromBytes(raw)
		enc, _ := adaptive.EncodePayload(nil, ch, pairs)
		for _, layout := range layouts(ch, pairs) {
			if len(enc) > len(layout) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTaggedRoundTrip: every tagged layout, and the adaptive codec's pick
// among them, reproduces the (key, other)-sorted pair multiset on both
// channels, including duplicates and negative vertex IDs.
func TestTaggedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dup := make([]Pair, 400)
	for i := range dup {
		dup[i] = Pair{graph.Vertex(rng.Int63n(64)), graph.Vertex(rng.Int63n(16))} // heavy duplication
	}
	neg := []Pair{{-5, 3}, {7, -2}, {-5, 3}, {0, 0}, {-1 << 62, 1 << 62}}
	payloads := map[string][]Pair{
		"empty":      nil,
		"single":     {{12345, 67890}},
		"dense":      densePairs(300),
		"sparse":     hugeSparsePairs(50),
		"duplicates": dup,
		"negative":   neg,
	}
	for name, pairs := range payloads {
		for _, ch := range []Channel{ChanForward, ChanBackward} {
			want := append([]Pair(nil), pairs...)
			sortByColumn(want, keyColumn(ch))
			for layout, enc := range encodings(ch, pairs) {
				dec, err := AdaptiveCodec{}.DecodePayload(nil, enc)
				if err != nil {
					t.Fatalf("%s/%s/%s: decode: %v", name, layout, ch, err)
				}
				if !slices.Equal(dec, want) {
					t.Fatalf("%s/%s/%s: decoded %v, want %v", name, layout, ch, dec, want)
				}
			}
		}
	}
}

// TestTaggedDecodeRejectsGarbage: malformed tagged streams error instead
// of panicking — reserved tag bits, truncated bodies, impossible word
// counts.
func TestTaggedDecodeRejectsGarbage(t *testing.T) {
	bad := map[string][]byte{
		"reserved-bits":     {0xF8},
		"unknown-format":    {0x03},
		"raw-truncated":     {byte(FormatRaw), 1, 2, 3},
		"varint-truncated":  {byte(FormatVarintDelta), 0x80},
		"bitmap-no-base":    {byte(FormatBitmap)},
		"bitmap-word-bomb":  {byte(FormatBitmap), 0x00, 0xFF, 0xFF, 0xFF, 0x7F},
		"bitmap-truncwords": {byte(FormatBitmap), 0x00, 0x02, 0xAA},
	}
	for name, data := range bad {
		if _, err := decodeTagged(nil, data); err == nil {
			t.Errorf("%s: decode accepted garbage %x", name, data)
		}
	}
	// Empty input is the legal empty payload.
	if dec, err := decodeTagged(nil, nil); err != nil || len(dec) != 0 {
		t.Fatalf("empty payload decode = (%v, %v)", dec, err)
	}
}

// TestCodecByName covers the flag/checkpoint name resolution both ways:
// the valid names resolve, and a retired or unknown one is refused with
// the valid set named.
func TestCodecByName(t *testing.T) {
	for name, want := range map[string]string{
		"": "", "raw": "", "adaptive": "adaptive",
	} {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatalf("CodecByName(%q): %v", name, err)
		}
		got := ""
		if c != nil {
			got = c.Name()
		}
		if got != want {
			t.Fatalf("CodecByName(%q).Name() = %q, want %q", name, got, want)
		}
	}
	for _, name := range []string{"varint-delta", "bitmap", "gzip"} {
		if _, err := CodecByName(name); err == nil || !strings.Contains(err.Error(), "want raw or adaptive") {
			t.Fatalf("CodecByName(%q) = %v, want an error naming the valid set", name, err)
		}
	}
}

// TestWireTrafficReconciles: the modelled wire bytes equal the actual
// encoded buffer lengths, on both transports. Every point-to-point byte
// the fabric charged decomposes exactly into batch headers and encoded
// payload bytes (the codec counters' sum — real buffer lengths).
func TestWireTrafficReconciles(t *testing.T) {
	totalP2P := func(net *Network) int64 {
		s := net.Counters.Snapshot()
		var total int64
		for _, b := range s.Bytes {
			total += b
		}
		return total
	}
	codecTotals := func(net *Network) (msgs, bytes int64) {
		for _, ct := range net.CodecTraffic() {
			msgs += ct.Messages
			bytes += ct.Bytes
		}
		return
	}

	t.Run("direct", func(t *testing.T) {
		net := mustNetwork(t, Config{Nodes: 8, SuperNodeSize: 4, BatchBytes: 512, Codec: AdaptiveCodec{}})
		eps := make([]Endpoint, 8)
		for i := range eps {
			eps[i] = NewDirectEndpoint(net, i)
		}
		sent, got, err := exchange(t, net, eps, 500, 11)
		if err != nil {
			t.Fatal(err)
		}
		compareExchange(t, sent, got)

		codecMsgs, codecBytes := codecTotals(net)
		kindMsgs := net.CaptureState().KindMsgs
		dataMsgs, endMsgs := kindMsgs[KindData], kindMsgs[KindEnd]
		if codecMsgs != dataMsgs {
			t.Fatalf("codec encoded %d messages, %d data batches delivered", codecMsgs, dataMsgs)
		}
		want := batchHeaderBytes*(dataMsgs+endMsgs) + codecBytes
		if got := totalP2P(net); got != want {
			t.Fatalf("modelled wire bytes %d != %d (headers %d*(%d+%d) + encoded %d)",
				got, want, int64(batchHeaderBytes), dataMsgs, endMsgs, codecBytes)
		}
	})

	t.Run("relay", func(t *testing.T) {
		nodes := 8
		net := mustNetwork(t, Config{Nodes: nodes, SuperNodeSize: 4, BatchBytes: 512, Codec: AdaptiveCodec{}})
		shape, err := NewGroupShape(nodes, 4)
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]Endpoint, nodes)
		for i := range eps {
			if eps[i], err = NewRelayEndpoint(net, i, shape); err != nil {
				t.Fatal(err)
			}
		}
		sent, got, err := exchange(t, net, eps, 500, 12)
		if err != nil {
			t.Fatal(err)
		}
		compareExchange(t, sent, got)

		codecMsgs, codecBytes := codecTotals(net)
		var topMsgs int64
		for _, msgs := range net.CaptureState().KindMsgs {
			topMsgs += msgs
		}
		// Every encoded inner batch (codecMsgs counts exactly those) crosses
		// two hops, to its relay inside an envelope and on inside a
		// stage-two batch, each time with its header and its bytes.
		want := batchHeaderBytes*(topMsgs+2*codecMsgs) + 2*codecBytes
		if got := totalP2P(net); got != want {
			t.Fatalf("modelled wire bytes %d != %d (headers %d*(%d+2*%d) + 2*encoded %d)",
				got, want, int64(batchHeaderBytes), topMsgs, codecMsgs, codecBytes)
		}
	})
}

// TestCodecTrafficLossless runs the standard exchange under the adaptive
// codec on both transports: delivery must be a lossless multiset, and the
// encoded formats must show up in the per-format counters.
func TestCodecTrafficLossless(t *testing.T) {
	for _, transport := range []string{"direct", "relay"} {
		t.Run("adaptive/"+transport, func(t *testing.T) {
			net := mustNetwork(t, Config{Nodes: 8, SuperNodeSize: 4, BatchBytes: 256, Codec: AdaptiveCodec{}})
			eps := make([]Endpoint, 8)
			for i := range eps {
				if transport == "direct" {
					eps[i] = NewDirectEndpoint(net, i)
				} else {
					shape, err := NewGroupShape(8, 4)
					if err != nil {
						t.Fatal(err)
					}
					re, err := NewRelayEndpoint(net, i, shape)
					if err != nil {
						t.Fatal(err)
					}
					eps[i] = re
				}
			}
			sent, got, err := exchange(t, net, eps, 400, 77)
			if err != nil {
				t.Fatal(err)
			}
			compareExchange(t, sent, got)
			var msgs int64
			for _, ct := range net.CodecTraffic() {
				msgs += ct.Messages
			}
			if msgs == 0 {
				t.Fatal("no payload was codec-encoded")
			}
		})
	}
}

// TestAdaptiveEncodeAllocs: the steady-state encode path is
// allocation-free — the ordered copy, the scatter's second buffer and its
// histogram live in the pooled scratch, and output buffers come from pools
// or the caller. The dense batch is already in order; the shuffled one
// takes two scatter passes on each column.
func TestAdaptiveEncodeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	var codec AdaptiveCodec
	for name, pairs := range map[string][]Pair{
		"dense512":     densePairs(512),
		"shuffled4096": shuffledPairs(rand.New(rand.NewSource(3)), 4096),
	} {
		buf, _ := codec.EncodePayload(nil, ChanBackward, pairs) // warm the buffer to full size
		if n := testing.AllocsPerRun(100, func() {
			buf, _ = codec.EncodePayload(buf[:0], ChanBackward, pairs)
		}); n != 0 {
			t.Fatalf("%s: EncodePayload allocates %.1f times per call in steady state, want 0", name, n)
		}
		// The network path draws its buffers from the encode pool — also free.
		if n := testing.AllocsPerRun(100, func() {
			enc, _ := codec.EncodePayload(getEncBuf(), ChanBackward, pairs)
			putEncBuf(enc)
		}); n != 0 {
			t.Fatalf("%s: pooled EncodePayload allocates %.1f times per call, want 0", name, n)
		}
	}
}

// BenchmarkEncodeAdaptive measures the adaptive encode hot path and
// reports its cost and the achieved wire density per pair. generator1024
// is the relay inner batch of the top-down generator (one key scatter);
// shuffled4096 has neither column in order (both columns scattered).
func BenchmarkEncodeAdaptive(b *testing.B) {
	for _, bc := range []struct {
		name  string
		ch    Channel
		pairs []Pair
	}{
		{"dense4096", ChanBackward, densePairs(4096)},
		{"sparse4096", ChanBackward, hugeSparsePairs(4096)},
		{"generator1024", ChanForward, generatorPairs(rand.New(rand.NewSource(1)), 1024)},
		{"shuffled4096", ChanForward, shuffledPairs(rand.New(rand.NewSource(2)), 4096)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var codec AdaptiveCodec
			buf, _ := codec.EncodePayload(nil, bc.ch, bc.pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = codec.EncodePayload(buf[:0], bc.ch, bc.pairs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(bc.pairs)), "ns/pair")
			b.ReportMetric(float64(len(buf))/float64(len(bc.pairs)), "bytes/pair")
		})
	}
}
