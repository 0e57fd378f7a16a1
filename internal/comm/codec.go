package comm

import (
	"encoding/binary"
	"fmt"

	"swbfs/internal/graph"
)

// Codec models a message compression scheme for data batches. The paper
// (Section 7) lists message compression as an orthogonal optimization that
// "may be integrated with our work in future"; this hook integrates it.
// A plain Codec only reshapes the accounted wire size; a PayloadCodec
// (see wirecodec.go) additionally runs on the real transport path — the
// batch travels as its encoded bytes and the modelled wire size is the
// exact encoded length.
type Codec interface {
	// Name labels the codec in reports.
	Name() string
	// EncodedSize returns the wire size of a pair payload in bytes
	// (forward-channel key semantics for the channel-aware codecs).
	EncodedSize(pairs []Pair) int64
}

// RawCodec is the identity encoding: 16 bytes per pair, no wire
// transformation. It is the nil-codec default spelled out.
type RawCodec struct{}

// Name implements Codec.
func (RawCodec) Name() string { return "raw" }

// EncodedSize implements Codec.
func (RawCodec) EncodedSize(pairs []Pair) int64 {
	return int64(len(pairs)) * PairBytes
}

// VarintDeltaCodec is the classic BFS message compressor (cf. Checconi &
// Petrini): within one batch all pairs go to the same owner, so
// destination vertices are dense and clustered — sort by destination,
// delta-encode destinations, and varint both the deltas and the sources.
// Its wire stream is the legacy untagged format (destination-keyed on
// both channels); AdaptiveCodec embeds the same layout behind a format
// tag with channel-aware keying.
type VarintDeltaCodec struct{}

// Name implements Codec.
func (VarintDeltaCodec) Name() string { return "varint-delta" }

// EncodedSize implements Codec. It shares the pooled ordered scratch with
// EncodePayload, so sizing a batch neither allocates nor re-orders on the
// steady-state hot path. The untagged stream over (dst, src)-ordered pairs
// — uvarint destination deltas (first absolute) plus uvarint sources — is
// the tagged varint-delta layout keyed on column 1, less its tag byte.
func (VarintDeltaCodec) EncodedSize(pairs []Pair) int64 {
	if len(pairs) == 0 {
		return 0
	}
	s := getScratch(pairs, 1)
	defer s.release()
	return sizeOrdered(s.ps, 1).size[FormatVarintDelta] - 1
}

// PayloadSize implements PayloadCodec (the legacy format is
// destination-keyed on every channel, so the channel is immaterial).
func (c VarintDeltaCodec) PayloadSize(_ Channel, pairs []Pair) int64 {
	return c.EncodedSize(pairs)
}

// EncodePayload implements PayloadCodec, appending the untagged legacy
// stream to dst.
func (VarintDeltaCodec) EncodePayload(dst []byte, _ Channel, pairs []Pair) ([]byte, WireFormat) {
	if len(pairs) == 0 {
		return dst, FormatVarintDelta
	}
	s := getScratch(pairs, 1)
	defer s.release()
	at := len(dst)
	dst = grow(dst, sizeOrdered(s.ps, 1).size[FormatVarintDelta]-1)
	putVarintPairs(dst[at:], s.ps, 1)
	return dst, FormatVarintDelta
}

// DecodePayload implements PayloadCodec.
func (VarintDeltaCodec) DecodePayload(dst []Pair, data []byte) ([]Pair, error) {
	prev := int64(0)
	for len(data) > 0 {
		delta, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, fmt.Errorf("comm: varint-delta payload: bad destination delta at pair %d", len(dst))
		}
		data = data[n:]
		src, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, fmt.Errorf("comm: varint-delta payload: truncated source at pair %d", len(dst))
		}
		data = data[n:]
		d := prev + int64(delta)
		dst = append(dst, Pair{graph.Vertex(src), graph.Vertex(d)})
		prev = d
	}
	return dst, nil
}

// codecFor returns the codec governing a channel: the backward override
// when set, else the run-wide codec, else RawCodec.
func (n *Network) codecFor(ch Channel) Codec {
	if ch == ChanBackward && n.codecBackward != nil {
		return n.codecBackward
	}
	if n.codec == nil {
		return RawCodec{}
	}
	return n.codec
}

// wireSize returns the modelled wire size of a batch. Payload-encoded
// batches charge their exact encoded length; relay stage-two re-batches
// (Batch.NoCodec) and raw channels charge 16 bytes per pair; a plain
// accounting-only Codec keeps its modelled EncodedSize. Envelopes add
// their inner batches; headers stay fixed.
func (n *Network) wireSize(b *Batch) int64 {
	codec := n.codecFor(b.Channel)
	if _, raw := codec.(RawCodec); raw {
		return b.ByteSize()
	}
	size := int64(batchHeaderBytes)
	switch {
	case b.Enc != nil:
		size += int64(len(b.Enc))
	case b.NoCodec:
		size += int64(len(b.Pairs)) * PairBytes
	default:
		if _, ok := codec.(PayloadCodec); ok {
			// Payload codecs encode in deliver; only empty payloads (end
			// markers, bare envelopes) reach here.
			size += int64(len(b.Pairs)) * PairBytes
		} else {
			size += codec.EncodedSize(b.Pairs)
		}
	}
	for i := range b.Inner {
		size += n.wireSize(&b.Inner[i])
	}
	return size
}
