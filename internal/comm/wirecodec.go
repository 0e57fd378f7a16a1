package comm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"swbfs/internal/graph"
)

// This file is the real wire-encoding layer: the tagged formats
// AdaptiveCodec picks among, the pooled scratch that keeps the encode hot
// path allocation-free at steady state, and AdaptiveCodec itself. Every
// encoded payload starts with its tag byte. The classic BFS compressors it
// packages are Checconi & Petrini's delta/varint pair packing and the
// dense-frontier bitmap encoding of Buluç & Madduri — the paper's Section
// 7 names message compression as the orthogonal optimization to integrate.

// WireFormat identifies the on-wire layout of one encoded data payload.
type WireFormat uint8

const (
	// FormatRaw is 16 bytes per pair, little-endian, in normalized order.
	FormatRaw WireFormat = iota
	// FormatVarintDelta is the sorted delta/varint pair stream.
	FormatVarintDelta
	// FormatBitmap is a word-aligned bitmap over the batch's key-vertex
	// range plus varint companions in key order.
	FormatBitmap
	numWireFormats
)

func (f WireFormat) String() string {
	switch f {
	case FormatRaw:
		return "raw"
	case FormatVarintDelta:
		return "varint-delta"
	case FormatBitmap:
		return "bitmap"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// Tag byte that opens every encoded payload: bits 0-1 carry the
// WireFormat, bit 2 the key column (0 = column 1, the forward channel's
// destination; 1 = column 0, the backward channel's probed parent), bits
// 3-7 must be zero.
const (
	tagFormatMask = 0x03
	tagKeyBit     = 0x04
)

// keyColumn returns the Pair column that is owned by the receiving node on
// the given channel — the dense, clustered column worth bitmap-encoding.
// Forward pairs (u discovered v) go to v's owner; backward probes (u, v)
// go to u's owner.
func keyColumn(ch Channel) int {
	if ch == ChanBackward {
		return 0
	}
	return 1
}

// codecScratch is the reusable encode workspace: the (key, other)-ordered
// copy of the batch that sizing and emit share, the second buffer the
// scatter passes alternate with, and the digit histogram — so the hot path
// neither allocates nor orders twice.
type codecScratch struct {
	ps, tmp []Pair
	count   [1 << radixBits]uint32
}

const (
	// radixBits is the widest scatter digit: a 2048-bucket, 8 KB histogram.
	radixBits = 11
	// insertionMax is the batch size below which clearing and summing a
	// histogram per pass costs more than an insertion sort.
	insertionMax = 96
)

var scratchPool = sync.Pool{New: func() any { return new(codecScratch) }}

// getScratch returns a scratch whose ps holds a (key, other)-ordered copy
// of pairs; pairs itself is only read.
func getScratch(pairs []Pair, key int) *codecScratch {
	s := scratchPool.Get().(*codecScratch)
	s.order(pairs, key)
	return s
}

// order is the bucket shuffle of the paper's CPE clusters on one core: an
// LSD counting scatter, stable per pass, so ordering the other column and
// then the key column yields (key, other) order. One scan finds both
// columns' ranges and two shortcuts: a batch already in order is copied
// and done, and a batch whose other column is non-decreasing — the
// top-down generator emits (u ascending, v ascending) — needs the key
// scatter alone. (key, other) is a total order on pair values, so every
// correct ordering produces the same sequence and hence the same bytes.
func (s *codecScratch) order(pairs []Pair, key int) {
	other := 1 - key
	ordered, otherOrdered := true, true
	var loK, hiK, loO, hiO graph.Vertex
	if len(pairs) > 0 {
		loK, hiK, loO, hiO = pairs[0][key], pairs[0][key], pairs[0][other], pairs[0][other]
	}
	for i := 1; i < len(pairs); i++ {
		pk, po, k, o := pairs[i-1][key], pairs[i-1][other], pairs[i][key], pairs[i][other]
		if k < pk || k == pk && o < po {
			ordered = false
		}
		if o < po {
			otherOrdered = false
		}
		loK, hiK, loO, hiO = min(loK, k), max(hiK, k), min(loO, o), max(hiO, o)
	}
	if ordered || len(pairs) < insertionMax {
		s.ps = append(s.ps[:0], pairs...)
		for i := 1; !ordered && i < len(s.ps); i++ {
			p, j := s.ps[i], i
			for ; j > 0 && (p[key] < s.ps[j-1][key] || p[key] == s.ps[j-1][key] && p[other] < s.ps[j-1][other]); j-- {
				s.ps[j] = s.ps[j-1]
			}
			s.ps[j] = p
		}
		return
	}
	// An unordered batch has a column that varies, so at least one scatter
	// below runs a pass and the result lands in s.ps.
	if !otherOrdered {
		pairs = s.scatter(pairs, other, loO, hiO)
	}
	s.scatter(pairs, key, loK, hiK)
}

// scatter stably orders src by one column into s.ps and returns it. Digits
// are taken over col-lo, so the pass count follows the batch's own span,
// split into equal digits of at most radixBits. Each pass reads src (the
// caller's batch or s.ps) and writes s.tmp, then the two buffers swap.
func (s *codecScratch) scatter(src []Pair, col int, lo, hi graph.Vertex) []Pair {
	width := bits.Len64(uint64(hi) - uint64(lo))
	if width == 0 {
		return src
	}
	passes := (width + radixBits - 1) / radixBits
	digit := (width + passes - 1) / passes
	count := s.count[:1<<digit]
	mask := uint64(len(count) - 1)
	for shift := 0; shift < width; shift += digit {
		clear(count)
		for i := range src {
			count[(uint64(src[i][col])-uint64(lo))>>shift&mask]++
		}
		var sum uint32
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		if cap(s.tmp) < len(src) {
			s.tmp = make([]Pair, len(src))
		}
		dst := s.tmp[:len(src)]
		for i := range src {
			d := (uint64(src[i][col]) - uint64(lo)) >> shift & mask
			dst[count[d]] = src[i]
			count[d]++
		}
		s.ps, s.tmp = dst, s.ps
		src = dst
	}
	return src
}

func (s *codecScratch) release() { scratchPool.Put(s) }

// encBuf boxes an encoded payload buffer for pooling. Storing a bare
// []byte in a sync.Pool heap-allocates the slice header on every Put;
// cycling pointer-sized boxes between two pools keeps the steady-state
// encode path allocation-free (TestAdaptiveEncodeAllocs pins this).
type encBuf struct{ b []byte }

// encBufPool holds boxes carrying a recycled buffer; encBoxPool holds the
// emptied boxes waiting for the next putEncBuf. Boxes cycle between the
// two, so neither Get nor Put allocates once warm.
var (
	encBufPool = sync.Pool{New: func() any { return new(encBuf) }}
	encBoxPool = sync.Pool{New: func() any { return new(encBuf) }}
)

// getEncBuf returns a pooled encode buffer (length 0, capacity from past
// use). deliver encodes into it; the receiving endpoint returns it after
// decoding.
func getEncBuf() []byte {
	eb := encBufPool.Get().(*encBuf)
	b := eb.b
	eb.b = nil
	encBoxPool.Put(eb)
	return b[:0]
}

func putEncBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	eb := encBoxPool.Get().(*encBuf)
	eb.b = b[:0]
	encBufPool.Put(eb)
}

// uvarintLen returns the uvarint encoding length of x without encoding.
func uvarintLen(x uint64) int64 { return int64(bits.Len64(x|1)+6) / 7 }

// grow extends dst by n bytes in one reallocation at most; the emitters
// then write the extension by index.
func grow(dst []byte, n int64) []byte {
	return slices.Grow(dst, int(n))[:len(dst)+int(n)]
}

// zigzag maps a signed value to the unsigned varint space (small magnitude
// either sign stays small); unzigzag inverts it.
func zigzag(v int64) uint64   { return uint64(v)<<1 ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// mkPair reassembles a pair from its key and other columns.
func mkPair(key int, k, o int64) Pair {
	if key == 0 {
		return Pair{graph.Vertex(k), graph.Vertex(o)}
	}
	return Pair{graph.Vertex(o), graph.Vertex(k)}
}

func taggedRawSize(n int) int64 { return 1 + int64(n)*PairBytes }

// formatSizes is the exact encoded size of one ordered batch in each format,
// and the bitmap section sizes its emitter places its cursors by.
type formatSizes struct {
	size    [numWireFormats]int64
	words   uint64 // bitmap words over the key span
	firsts  int64  // bytes of the first-companion section
	nExtras int64  // duplicate-key entries
}

// sizeOrdered sizes sorted in all three formats in one pass.
func sizeOrdered(sorted []Pair, key int) formatSizes {
	base := int64(sorted[0][key])
	z := formatSizes{words: (uint64(sorted[len(sorted)-1][key])-uint64(base))/64 + 1}
	varint, extras := int64(1), int64(0)
	prev, prevExtra := int64(0), base
	for i := range sorted {
		k := int64(sorted[i][key])
		ol := uvarintLen(uint64(sorted[i][1-key]))
		varint += uvarintLen(uint64(k-prev)) + ol
		if i == 0 || k != prev {
			z.firsts += ol
		} else {
			z.nExtras++
			extras += uvarintLen(uint64(k-prevExtra)) + ol
			prevExtra = k
		}
		prev = k
	}
	z.size[FormatRaw] = taggedRawSize(len(sorted))
	z.size[FormatVarintDelta] = varint
	z.size[FormatBitmap] = 1 + uvarintLen(zigzag(base)) + uvarintLen(z.words) + int64(z.words)*8 +
		z.firsts + uvarintLen(uint64(z.nExtras)) + extras
	return z
}

// appendTagged emits sorted in the given format, sized by z.
func appendTagged(dst []byte, format WireFormat, sorted []Pair, key int, z formatSizes) []byte {
	at := len(dst)
	tag := byte(format)
	if key == 0 {
		tag |= tagKeyBit
	}
	dst = grow(dst, z.size[format])
	dst[at] = tag
	switch format {
	case FormatRaw: // tag | (8B LE column 0, 8B LE column 1)*
		for i, p := range sorted {
			binary.LittleEndian.PutUint64(dst[at+1+i*PairBytes:], uint64(p[0]))
			binary.LittleEndian.PutUint64(dst[at+9+i*PairBytes:], uint64(p[1]))
		}
	case FormatVarintDelta: // tag | (uvarint keyDelta, uvarint other)*, first key absolute
		i, prev := at+1, int64(0)
		for _, p := range sorted {
			k := int64(p[key])
			i += binary.PutUvarint(dst[i:], uint64(k-prev))
			i += binary.PutUvarint(dst[i:], uint64(p[1-key]))
			prev = k
		}
	default:
		putBitmap(dst[at+1:], sorted, key, z)
	}
	return dst
}

// decodeVarint inverts appendTagged's varint-delta body, appending to dst.
// Pairs come back in the order they were written: sorted by (key column,
// other column).
func decodeVarint(dst []Pair, body []byte, key int) ([]Pair, error) {
	prev := int64(0)
	for len(body) > 0 {
		d, n := binary.Uvarint(body)
		if n <= 0 {
			return dst, fmt.Errorf("comm: varint payload: bad key delta at pair %d", len(dst))
		}
		body = body[n:]
		o, n := binary.Uvarint(body)
		if n <= 0 {
			return dst, fmt.Errorf("comm: varint payload: truncated companion at pair %d", len(dst))
		}
		body = body[n:]
		k := prev + int64(d)
		dst = append(dst, mkPair(key, k, int64(o)))
		prev = k
	}
	return dst, nil
}

// putBitmap writes the body of the bitmap format into b:
//
//	zigzag-varint(base = min key) | uvarint(nwords)
//	| nwords x 8B LE bitmap of the distinct keys over [base, base+64*nwords)
//	| per set key, ascending: uvarint(first other)  — min other of the key
//	| uvarint(nExtras)
//	| per remaining (key, other), ascending: uvarint(key - prevKey) uvarint(other)
//
// The bitmap carries the batch's key column — the receiver-owned vertex
// range, word-aligned like the hub frontier bitmaps — and duplicates of a
// key (several sources discovering one destination, several probes of one
// parent) spill into the extras stream. z gives every section's offset, so
// one pass over sorted fills all three.
func putBitmap(b []byte, sorted []Pair, key int, z formatSizes) {
	base := int64(sorted[0][key])
	at := binary.PutUvarint(b, zigzag(base))
	at += binary.PutUvarint(b[at:], z.words)
	bitmap := b[at : at+int(z.words)*8]
	clear(bitmap)
	first := at + len(bitmap)
	extra := first + int(z.firsts)
	extra += binary.PutUvarint(b[extra:], uint64(z.nExtras))
	prev, prevExtra := base, base
	for i := range sorted {
		k, o := int64(sorted[i][key]), uint64(sorted[i][1-key])
		if i == 0 || k != prev {
			idx := uint64(k) - uint64(base)
			bitmap[idx/8] |= 1 << (idx % 8) // little-endian words: bit idx is bit idx%8 of byte idx/8
			first += binary.PutUvarint(b[first:], o)
		} else {
			extra += binary.PutUvarint(b[extra:], uint64(k-prevExtra))
			extra += binary.PutUvarint(b[extra:], o)
			prevExtra = k
		}
		prev = k
	}
}

// decodeTagged inverts appendTagged, appending to dst.
// The whole stream must be consumed exactly; pairs come back sorted by
// (key column, other column).
func decodeTagged(dst []Pair, data []byte) ([]Pair, error) {
	if len(data) == 0 {
		return dst, nil
	}
	tag := data[0]
	if tag&^(tagFormatMask|tagKeyBit) != 0 {
		return dst, fmt.Errorf("comm: tagged payload: reserved tag bits set (0x%02x)", tag)
	}
	format := WireFormat(tag & tagFormatMask)
	key := 1
	if tag&tagKeyBit != 0 {
		key = 0
	}
	body := data[1:]
	switch format {
	case FormatRaw:
		if len(body)%PairBytes != 0 {
			return dst, fmt.Errorf("comm: raw payload: %d bytes is not a whole number of pairs", len(body))
		}
		for len(body) > 0 {
			p0 := int64(binary.LittleEndian.Uint64(body))
			p1 := int64(binary.LittleEndian.Uint64(body[8:]))
			dst = append(dst, Pair{graph.Vertex(p0), graph.Vertex(p1)})
			body = body[PairBytes:]
		}
		return dst, nil

	case FormatVarintDelta:
		return decodeVarint(dst, body, key)

	case FormatBitmap:
		return decodeTaggedBitmap(dst, body, key)

	default:
		return dst, fmt.Errorf("comm: tagged payload: unknown format %d", format)
	}
}

func decodeTaggedBitmap(dst []Pair, body []byte, key int) ([]Pair, error) {
	start := len(dst)
	zb, n := binary.Uvarint(body)
	if n <= 0 {
		return dst, fmt.Errorf("comm: bitmap payload: bad base")
	}
	body = body[n:]
	base := unzigzag(zb)
	words, n := binary.Uvarint(body)
	if n <= 0 {
		return dst, fmt.Errorf("comm: bitmap payload: bad word count")
	}
	body = body[n:]
	if words > uint64(len(body))/8 {
		return dst, fmt.Errorf("comm: bitmap payload: %d words exceed %d remaining bytes", words, len(body))
	}
	bitmap := body[:words*8]
	body = body[words*8:]

	// Firsts: one companion per set bit, ascending key order.
	for wi := uint64(0); wi < words; wi++ {
		w := binary.LittleEndian.Uint64(bitmap[wi*8:])
		for ; w != 0; w &= w - 1 {
			idx := wi*64 + uint64(bits.TrailingZeros64(w))
			k := int64(uint64(base) + idx)
			o, n := binary.Uvarint(body)
			if n <= 0 {
				return dst, fmt.Errorf("comm: bitmap payload: truncated companion for key %d", k)
			}
			body = body[n:]
			dst = append(dst, mkPair(key, k, int64(o)))
		}
	}

	nExtras, n := binary.Uvarint(body)
	if n <= 0 {
		return dst, fmt.Errorf("comm: bitmap payload: bad extras count")
	}
	body = body[n:]
	prev := base
	for i := uint64(0); i < nExtras; i++ {
		d, n := binary.Uvarint(body)
		if n <= 0 {
			return dst, fmt.Errorf("comm: bitmap payload: bad extra key delta")
		}
		body = body[n:]
		o, n := binary.Uvarint(body)
		if n <= 0 {
			return dst, fmt.Errorf("comm: bitmap payload: truncated extra companion")
		}
		body = body[n:]
		k := prev + int64(d)
		dst = append(dst, mkPair(key, k, int64(o)))
		prev = k
	}
	if len(body) != 0 {
		return dst, fmt.Errorf("comm: bitmap payload: %d trailing bytes", len(body))
	}
	if nExtras > 0 {
		// Extras interleave with the firsts by key; restore (key, other)
		// order.
		s := getScratch(dst[start:], key)
		copy(dst[start:], s.ps)
		s.release()
	}
	return dst, nil
}

// AdaptiveCodec picks the cheapest of {raw, varint-delta, bitmap} per
// batch from the batch's own key density: sparse batches delta-compress,
// dense batches (the bottom-up backward query waves) collapse into
// bitmaps, and only batches whose varints average 8 bytes a column (key
// deltas and companions past 2^49, or negative) stay raw. It is the one
// payload codec, so every encoded payload starts with its tag byte. Ties
// prefer the cheaper decode (raw, then varint-delta, then bitmap). One
// pooled sorted scratch serves the three exact size computations and the
// final encode, so the steady-state hot path allocates nothing.
type AdaptiveCodec struct{}

// Name implements PayloadCodec.
func (AdaptiveCodec) Name() string { return "adaptive" }

// EncodePayload implements PayloadCodec.
func (AdaptiveCodec) EncodePayload(dst []byte, ch Channel, pairs []Pair) ([]byte, WireFormat) {
	if len(pairs) == 0 {
		return dst, FormatRaw
	}
	key := keyColumn(ch)
	s := getScratch(pairs, key)
	defer s.release()
	format, z := adaptiveChoice(s.ps, key)
	return appendTagged(dst, format, s.ps, key, z), format
}

// DecodePayload implements PayloadCodec.
func (AdaptiveCodec) DecodePayload(dst []Pair, data []byte) ([]Pair, error) {
	return decodeTagged(dst, data)
}

// adaptiveChoice sizes sorted in every format in one pass and returns the
// cheapest one — on a tie the earlier, cheaper-to-decode format — with the
// sizes its emitter needs.
func adaptiveChoice(sorted []Pair, key int) (WireFormat, formatSizes) {
	z := sizeOrdered(sorted, key)
	best := FormatRaw
	for f := FormatVarintDelta; f < numWireFormats; f++ {
		if z.size[f] < z.size[best] {
			best = f
		}
	}
	return best, z
}
