package comm

import "fmt"

// PayloadCodec is a message compression scheme for data batches. The paper
// (Section 7) lists message compression as an orthogonal optimization that
// "may be integrated with our work in future"; this hook integrates it on
// the real transport path: deliver calls EncodePayload on every outgoing
// data batch, the receiving endpoint calls DecodePayload on arrival, and
// the modelled wire size of the batch is the exact length of the encoded
// buffer (Batch.ByteSize). A nil PayloadCodec is the identity encoding, 16
// bytes per pair. Encoding normalizes pair order — DecodePayload returns the multiset
// sorted by (key column, other column) — which completed runs cannot
// observe: parent claims and fold updates are order-independent.
type PayloadCodec interface {
	// Name labels the codec in reports.
	Name() string
	// EncodePayload appends the encoded payload to dst and reports the
	// format it chose. pairs must be non-empty; the input is not modified.
	EncodePayload(dst []byte, ch Channel, pairs []Pair) ([]byte, WireFormat)
	// DecodePayload appends the decoded pairs to dst. It inverts
	// EncodePayload bitwise: re-encoding the result reproduces the stream.
	DecodePayload(dst []Pair, data []byte) ([]Pair, error)
}

// CodecByName resolves a CLI codec name. "" and "raw" mean no codec (the
// identity encoding); unknown names error with the valid set.
func CodecByName(name string) (PayloadCodec, error) {
	switch name {
	case "", "raw":
		return nil, nil
	case "adaptive":
		return AdaptiveCodec{}, nil
	}
	return nil, fmt.Errorf("comm: unknown codec %q (want raw or adaptive)", name)
}

// codecFor returns the codec governing a channel: the backward override
// when set, else the run-wide codec; nil means raw.
func (n *Network) codecFor(ch Channel) PayloadCodec {
	if ch == ChanBackward && n.codecBackward != nil {
		return n.codecBackward
	}
	return n.codec
}
