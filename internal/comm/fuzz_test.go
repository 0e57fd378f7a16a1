package comm

import (
	"encoding/binary"
	"slices"
	"testing"

	"swbfs/internal/graph"
)

// pairsFromBytes carves raw into 16-byte little-endian (src, dst) pairs —
// the fuzzer's way of generating arbitrary payloads, including negative
// vertex IDs the codec must survive.
func pairsFromBytes(raw []byte) []Pair {
	var pairs []Pair
	for i := 0; i+16 <= len(raw); i += 16 {
		src := int64(binary.LittleEndian.Uint64(raw[i:]))
		dst := int64(binary.LittleEndian.Uint64(raw[i+8:]))
		pairs = append(pairs, Pair{graph.Vertex(src), graph.Vertex(dst)})
	}
	return pairs
}

// FuzzCodecRoundTrip drives every tagged layout and the adaptive codec's
// pick among them with arbitrary payloads on both channels: decoding must
// reproduce the (key, other)-sorted pair multiset, and decoding arbitrary
// bytes must never panic — and any stream the codec accepts must re-encode
// to a normal form of the same length, so retransmitted or duplicated
// batches decode alike.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, false)
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 11)
	}
	f.Add(seed, true)
	dense := make([]byte, 320)
	for i := 0; i+16 <= len(dense); i += 16 {
		binary.LittleEndian.PutUint64(dense[i:], uint64(1<<40+i))
		binary.LittleEndian.PutUint64(dense[i+8:], uint64(i/16))
	}
	f.Add(dense, true)                     // dense keys: the bitmap regime
	f.Add([]byte{0x04}, false)             // tagged: bitmap format, truncated body
	f.Add([]byte{0xF8, 0x01, 0x02}, false) // reserved tag bits
	f.Add([]byte{0x01, 0x80, 0x80}, false) // varint format, truncated uvarint
	clustered := make([]byte, 48)
	for i := range clustered {
		clustered[i] = byte(i * 7)
	}
	f.Add(clustered, false)                                              // small clustered IDs
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, false) // truncated / high-bit garbage
	f.Fuzz(func(t *testing.T, raw []byte, backward bool) {
		ch := ChanForward
		if backward {
			ch = ChanBackward
		}
		pairs := pairsFromBytes(raw)
		want := append([]Pair(nil), pairs...)
		sortByColumn(want, keyColumn(ch))
		var codec AdaptiveCodec
		for layout, enc := range encodings(ch, pairs) {
			dec, err := codec.DecodePayload(nil, enc)
			if err != nil {
				t.Fatalf("%s: decode of own encoding failed: %v", layout, err)
			}
			if !slices.Equal(dec, want) {
				t.Fatalf("%s: decoded %v, want %v", layout, dec, want)
			}
		}
		// Arbitrary bytes: rejecting is fine, panicking is not.
		if dec2, err := codec.DecodePayload(nil, raw); err == nil {
			enc2, _ := codec.EncodePayload(nil, ch, dec2)
			dec3, err := codec.DecodePayload(nil, enc2)
			if err != nil {
				t.Fatalf("re-decode of normalized stream failed: %v", err)
			}
			if len(dec3) != len(dec2) {
				t.Fatalf("normalization unstable: %d pairs then %d", len(dec2), len(dec3))
			}
		}
	})
}
