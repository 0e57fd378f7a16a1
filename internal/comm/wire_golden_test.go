package comm

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*_golden.json files from the current code")

const wireGolden = "testdata/wire_golden.json"

// generatorPairs is the top-down generator's stream to one destination of
// a 16-node round-robin machine at scale 17 — what a relay inner batch
// holds: sources ascending, each source's neighbours ascending, every
// neighbour ≡ 5 mod 16. On the forward channel the batch is ordered on
// its other column and not on its key column.
func generatorPairs(rng *rand.Rand, n int) []Pair {
	const nodes, d, vertices = 16, 5, 1 << 17
	ps := make([]Pair, 0, n+8)
	u := int64(0)
	for len(ps) < n {
		u += 1 + rng.Int63n(64)
		vs := make([]int64, 1+rng.Intn(8))
		for i := range vs {
			vs[i] = rng.Int63n(vertices/nodes)*nodes + d
		}
		slices.Sort(vs)
		for _, v := range vs {
			ps = append(ps, Pair{graph.Vertex(u), graph.Vertex(v)})
		}
	}
	return ps[:n]
}

func shuffledPairs(rng *rand.Rand, n int) []Pair {
	ps := generatorPairs(rng, n)
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// randomPairs draws both columns uniformly from [lo, lo+span).
func randomPairs(rng *rand.Rand, n int, lo, span int64) []Pair {
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{graph.Vertex(lo + rng.Int63n(span)), graph.Vertex(lo + rng.Int63n(span))}
	}
	return ps
}

// goldenFamilies are the seeded batch families the wire bytes are pinned
// on: the shapes the ordering routine branches on (already ordered,
// other-ordered, neither; below and above its small-batch cutoff; one and
// many digit passes) and the values its arithmetic has to survive.
func goldenFamilies() map[string][]Pair {
	rng := rand.New(rand.NewSource(13))
	fullSpan := make([]Pair, 200)
	for i := range fullSpan {
		fullSpan[i] = Pair{graph.Vertex(rng.Uint64()), graph.Vertex(rng.Uint64())}
	}
	fullSpan[17] = Pair{math.MinInt64, math.MaxInt64}
	fullSpan[118] = Pair{math.MaxInt64, math.MinInt64}
	ordered := generatorPairs(rng, 700)
	sortByColumn(ordered, 1)
	return map[string][]Pair{
		"generator-1024":  generatorPairs(rng, 1024),
		"generator-4096":  generatorPairs(rng, 4096),
		"generator-95":    generatorPairs(rng, 95),
		"generator-97":    generatorPairs(rng, 97),
		"key-ordered-700": ordered,
		"shuffled-4096":   shuffledPairs(rng, 4096),
		"shuffled-95":     shuffledPairs(rng, 95),
		"shuffled-96":     shuffledPairs(rng, 96),
		"shuffled-97":     shuffledPairs(rng, 97),
		"duplicates-400":  randomPairs(rng, 400, 0, 24),
		"negative-300":    randomPairs(rng, 300, -1<<20, 1<<21),
		"negative-far":    randomPairs(rng, 150, math.MinInt64+5, 1<<30),
		"full-span-200":   fullSpan,
		"dense-300":       densePairs(300),
		"single":          {{12345, 67890}},
	}
}

// goldenWire is what the file records of one encoded payload.
type goldenWire struct {
	Len    int
	Format string
	SHA256 string
}

// TestWireBytesMatchGolden pins every encoded byte of every tagged layout
// (written directly through appendTagged; see layouts) and of the adaptive
// codec's pick on both channels, against a file whose adaptive entries were
// generated while getScratch still ordered batches with sort.Sort: how a
// batch is put in (key, other) order and how its buffer is sized and
// filled are host-side only.
func TestWireBytesMatchGolden(t *testing.T) {
	if insertionMax != 96 {
		t.Fatalf("small-batch cutoff is %d: move the -95/-96/-97 families to either side of it", insertionMax)
	}
	got := map[string]goldenWire{}
	record := func(family, layout string, ch Channel, enc []byte, format WireFormat) {
		sum := sha256.Sum256(enc)
		got[fmt.Sprintf("%s/%s/%s", family, layout, ch)] = goldenWire{len(enc), format.String(), hex.EncodeToString(sum[:])}
	}
	for family, pairs := range goldenFamilies() {
		for _, ch := range []Channel{ChanForward, ChanBackward} {
			for f, enc := range layouts(ch, pairs) {
				record(family, f.String(), ch, enc, f)
			}
			input := slices.Clone(pairs)
			enc, format := AdaptiveCodec{}.EncodePayload(nil, ch, input)
			if !slices.Equal(input, pairs) {
				t.Fatalf("%s/adaptive/%s: EncodePayload modified its input", family, ch)
			}
			record(family, "adaptive", ch, enc, format)
		}
	}

	testutil.Golden(t, wireGolden, *updateGolden, got)
}
