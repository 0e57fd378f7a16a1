package algos

import (
	"math/bits"
	"sync"

	"swbfs/internal/comm"
)

// Worker fan-out for the kernel hot loops, under the BFS engine's parity
// contract: any parallelism is host-side only and must leave every
// modelled number bit-identical to the serial path. Sends fan out through
// comm.Fanout, which forwards the lanes' chunks in shard order, so the
// per-destination message sequence (and therefore every batch boundary,
// fault coordinate and modelled byte) equals the serial scan's; other
// loops shard with comm.ForEachShard.

// scanBits calls visit for every set bit of words[lo:hi] in ascending
// order (bit b of word w is index w*64+b) until visit returns an error.
func scanBits(words []uint64, lo, hi int64, visit func(i int64) error) error {
	for wi := lo; wi < hi; wi++ {
		for w := words[wi]; w != 0; w &= w - 1 {
			if err := visit(wi<<6 + int64(bits.TrailingZeros64(w))); err != nil {
				return err
			}
		}
	}
	return nil
}

// takeShards reslices a per-node scratch area to k empty shards, keeping
// every shard's backing capacity across rounds so steady-state bucketing
// allocates nothing. Worker goroutines append to their own shard
// element in place, so the grown slice headers land back in the scratch
// automatically.
func takeShards[T any](shards [][]T, k int) [][]T {
	for len(shards) < k {
		shards = append(shards, nil)
	}
	shards = shards[:k]
	for i := range shards {
		shards[i] = shards[i][:0]
	}
	return shards
}

// tally is a per-shard counter sized ctx.Workers: Handle(shard, ...)
// bumps only its own slot, so concurrent bucket appliers never share a
// counter, and the node goroutine drains it after the round's traffic.
type tally []int64

// drain returns the tally's sum and zeroes it.
func (t tally) drain() int64 {
	var sum int64
	for i, c := range t {
		sum += c
		t[i] = 0
	}
	return sum
}

// handleFanoutMin is the batch size (in pairs) below which the driver
// folds a batch inline instead of fanning it out: both paths produce bit-
// identical state, so the threshold is purely a host-time knob — small
// batches are cheaper to fold inline than to fan out.
const handleFanoutMin = 512

// vertexShardWidth splits the local vertex space [0, n) into k contiguous
// word-aligned ranges (multiples of 64): local i belongs to shard i/per.
// It returns the clamped worker count; k <= 1 means "stay serial" (per is
// then n, never divided by). Word alignment is what lets concurrent
// bucket appliers touch the same Bitmap without sharing a word.
func vertexShardWidth(n int64, k int) (per int64, workers int) {
	words := (n + 63) / 64
	if int64(k) > words {
		k = int(words)
	}
	if k <= 1 {
		return n, 1
	}
	return (words + int64(k) - 1) / int64(k) * 64, k
}

// applyBuckets runs body(shard, bucket) concurrently for every non-empty
// bucket, the last on the calling goroutine. body must only touch the
// vertex range of its own shard.
func applyBuckets(buckets [][]comm.Pair, body func(shard int, bucket []comm.Pair)) {
	last := len(buckets) - 1
	for last >= 0 && len(buckets[last]) == 0 {
		last--
	}
	var wg sync.WaitGroup
	for s := 0; s < last; s++ {
		if len(buckets[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			body(s, buckets[s])
		}(s)
	}
	if last >= 0 {
		body(last, buckets[last])
	}
	wg.Wait()
}

// sumChunkWidth is the canonical chunk size of chunkedSum. It is a fixed
// constant — never derived from the worker count — because the chunk
// structure is what makes the sum's rounding width-independent.
const sumChunkWidth = 4096

// chunkedSum folds sum(f(i) for i in [0, n)) through a canonical chunk
// structure: each sumChunkWidth-wide chunk is summed left-to-right into a
// private partial, chunks are computed concurrently across k workers, and
// the partials fold in chunk order on the caller's goroutine. Float
// addition is not associative, so a naive per-worker partial would round
// differently at every width; pinning the partial boundaries to a constant
// makes the result bit-identical for every k — the float-sum determinism
// rule of docs/ALGORITHMS.md.
func chunkedSum(n int64, k int, f func(i int64) float64) float64 {
	chunks := (n + sumChunkWidth - 1) / sumChunkWidth
	if chunks == 0 {
		return 0
	}
	partial := make([]float64, chunks)
	comm.ForEachShard(chunks, k, func(_ int, clo, chi int64) {
		for c := clo; c < chi; c++ {
			lo, hi := c*sumChunkWidth, (c+1)*sumChunkWidth
			if hi > n {
				hi = n
			}
			var s float64
			for i := lo; i < hi; i++ {
				s += f(i)
			}
			partial[c] = s
		}
	})
	var total float64
	for _, p := range partial {
		total += p
	}
	return total
}
