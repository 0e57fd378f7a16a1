package comm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

const endpointGolden = "testdata/endpoint_golden.json"

// goldenStream is one node's staged send stream: mostly single-pair runs,
// some runs that straddle the 16-pair quantum, and one destination the node
// never messages, so quanta and residual flushes both skip a member.
// Destination vertices are owned round-robin and clustered, so the adaptive
// codec has every format in play.
func goldenStream(node, nodes int) Stage {
	rng := rand.New(rand.NewSource(int64(100 + node)))
	silent := (node + 3) % nodes
	var s Stage
	for len(s.Pairs) < 200 {
		dst := rng.Intn(nodes)
		if dst == silent {
			continue
		}
		n := 1
		switch rng.Intn(6) {
		case 0:
			n = 10 + rng.Intn(30)
		case 1:
			n = 2 + rng.Intn(6)
		}
		for i := 0; i < n; i++ {
			u := graph.Vertex(rng.Int63n(1 << 12))
			v := graph.Vertex(rng.Int63n(1<<8)*int64(nodes) + int64(dst))
			s.Add(dst, Pair{u, v})
		}
	}
	return s
}

// cutStream splits a stream into SendMany calls: whole, one call per pair,
// or at seeded random points that also split runs.
func cutStream(s Stage, cut string, seed int64) []Stage {
	if cut == "one-call" {
		return []Stage{s}
	}
	var dsts []int
	for _, r := range s.Runs {
		for i := 0; i < r.N; i++ {
			dsts = append(dsts, r.Dst)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var out []Stage
	var cur Stage
	for i, p := range s.Pairs {
		cur.Add(dsts[i], p)
		if cut == "per-pair" || rng.Intn(40) == 0 {
			out = append(out, cur)
			cur = Stage{}
		}
	}
	if len(cur.Pairs) > 0 {
		out = append(out, cur)
	}
	return out
}

// payloadDigest is the pair count and a SHA-256 prefix of a payload as it
// travels — its encoded bytes, or its pairs — or "" for an empty one.
func payloadDigest(b *Batch) string {
	h := sha256.New()
	n := len(b.Pairs)
	if b.Enc != nil {
		n = b.EncN
		h.Write(b.Enc)
	} else {
		var buf [PairBytes]byte
		for _, p := range b.Pairs {
			binary.LittleEndian.PutUint64(buf[:], uint64(p[0]))
			binary.LittleEndian.PutUint64(buf[8:], uint64(p[1]))
			h.Write(buf[:])
		}
	}
	if n == 0 {
		return ""
	}
	return fmt.Sprintf(" n=%d sha=%x", n, h.Sum(nil)[:6])
}

// describeBatch is one line of the golden: kind, channel, route, level,
// payload and, for an envelope, each inner batch's route and payload.
func describeBatch(b *Batch) string {
	s := fmt.Sprintf("%s/%s %d→%d L%d%s", b.Kind, b.Channel, b.Src, b.Dst, b.Level, payloadDigest(b))
	if b.End {
		s += " +end"
	}
	if len(b.Inner) > 0 {
		inner := make([]string, len(b.Inner))
		for i := range b.Inner {
			in := &b.Inner[i]
			inner[i] = fmt.Sprintf("%s %d→%d L%d%s", in.Kind, in.Src, in.Dst, in.Level, payloadDigest(in))
		}
		s += " [" + strings.Join(inner, " | ") + "]"
	}
	return s
}

// endpointBatches runs one level of forward traffic on 8 nodes — every
// node's goldenStream cut as given, then CloseChannel — and returns every
// batch delivered, in delivery order per node, plus the traffic totals. One
// goroutine drives it in rounds: log and requeue what each inbox holds,
// queue a sentinel data batch behind it unless the node's channel has
// closed, then Recv on each open node up to its sentinel. Whatever a
// round's Recvs deliver (relay stage two, the relays' End markers) queues
// behind the sentinels and is logged the next round, so nothing blocks and
// the order is a function of the code alone.
func endpointBatches(t *testing.T, relay bool, codec PayloadCodec, cut string) []string {
	t.Helper()
	const nodes, level = 8, 3
	net := mustNetwork(t, Config{Nodes: nodes, SuperNodeSize: 4, BatchBytes: 256, Codec: codec})
	defer net.Close()
	eps := reuseEndpoints(t, net, relay)
	for _, ep := range eps {
		ep.StartLevel(level, ChanForward)
	}
	for node, ep := range eps {
		for _, st := range cutStream(goldenStream(node, nodes), cut, int64(node)) {
			if err := ep.SendMany(ChanForward, st.Runs, st.Pairs); err != nil {
				t.Fatal(err)
			}
		}
		if err := ep.CloseChannel(ChanForward); err != nil {
			t.Fatal(err)
		}
	}
	var log []string
	closed := make([]bool, nodes)
	for round := 0; slices.Contains(closed, false); round++ {
		if round == 8 {
			t.Fatalf("channels still open after %d rounds: %v", round, closed)
		}
		for node := range eps {
			in := net.inboxes[node]
			queued := make([]Batch, in.Len())
			for i := range queued {
				queued[i], _ = in.Pop()
				log = append(log, describeBatch(&queued[i]))
			}
			for _, b := range queued {
				in.Push(b)
			}
			if !closed[node] {
				in.Push(Batch{Kind: KindData, Channel: ChanForward, Src: -1, Dst: node, Level: level})
			}
		}
		for node, ep := range eps {
			for !closed[node] {
				ev := ep.Recv()
				if ev.Type == EvError {
					t.Fatalf("node %d: %v", node, ev.Err)
				}
				if ev.Type == EvChannelClosed {
					// Nothing follows the last End marker but the sentinel,
					// which a closed channel would refuse: take it back.
					closed[node] = true
					if b, _ := net.inboxes[node].Pop(); b.Src != -1 {
						t.Fatalf("node %d: %s batch after its channel closed", node, b.Kind)
					}
					break
				}
				if ev.Batch.Src == -1 {
					break
				}
				PutPairs(ev.Batch.Pairs)
			}
		}
	}
	return append(log, fmt.Sprintf("network bytes=%d messages=%d",
		net.Counters.NetworkBytes(), net.Counters.NetworkMessages()))
}

// TestEndpointBatchesMatchGolden pins every batch both transports deliver —
// kind, channel, route, level, pair count, payload hash and envelope shape —
// raw and under AdaptiveCodec, against a file generated before the two
// endpoints shared their staging and receive code. The three cuts of the
// same streams must agree with each other first: batch boundaries depend on
// the per-destination pair sequence alone.
func TestEndpointBatchesMatchGolden(t *testing.T) {
	got := map[string][]string{}
	for _, relay := range []bool{false, true} {
		for _, codec := range []PayloadCodec{nil, AdaptiveCodec{}} {
			name := "direct-8"
			if relay {
				name = "relay-4x2"
			}
			if codec == nil {
				name += "/raw"
			} else {
				name += "/" + codec.Name()
			}
			whole := endpointBatches(t, relay, codec, "one-call")
			for _, cut := range []string{"per-pair", "random-splits"} {
				if other := endpointBatches(t, relay, codec, cut); !slices.Equal(other, whole) {
					t.Fatalf("%s: the %s cut delivers other batches than one call", name, cut)
				}
			}
			got[name] = whole
		}
	}
	testutil.Golden(t, endpointGolden, *updateGolden, got)
}
