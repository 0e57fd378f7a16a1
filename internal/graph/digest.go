package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Digest returns the content hash a checkpoint pins its graph with: SHA-256
// over the vertex count, RowPtr and Col of g, then — when w is non-nil —
// the weight count and the weights, each value written as a little-endian
// 64-bit word. The same graph therefore digests the same on every
// platform, and a relabelled graph or other weights digest differently.
func Digest(g *CSR, w *Weights) string {
	h := sha256.New()
	buf := make([]byte, 0, 8<<10)
	put := func(v int64) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	put(g.N)
	for _, p := range g.RowPtr {
		put(p)
	}
	for _, v := range g.Col {
		put(int64(v))
	}
	if w != nil {
		put(int64(len(w.W)))
		for _, x := range w.W {
			put(x)
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
