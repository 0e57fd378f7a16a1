package comm

import (
	"sync"
	"testing"

	"swbfs/internal/graph"
)

// TestTwoChannelProtocol exercises the bottom-up wire pattern at the comm
// level: a backward query channel whose handlers reply on the forward
// channel, with the forward channel closing only after the backward stream
// fully drains — the exact sequencing core's bottom-up levels rely on.
func TestTwoChannelProtocol(t *testing.T) {
	for _, mode := range []string{"direct", "relay"} {
		t.Run(mode, func(t *testing.T) {
			const p = 6
			shape, err := NewGroupShape(p, 3)
			if err != nil {
				t.Fatal(err)
			}
			net := mustNetwork(t, Config{Nodes: p, SuperNodeSize: 3, BatchBytes: 64})
			eps := make([]Endpoint, p)
			for i := range eps {
				if mode == "relay" {
					eps[i], err = NewRelayEndpoint(net, i, shape)
					if err != nil {
						t.Fatal(err)
					}
				} else {
					eps[i] = NewDirectEndpoint(net, i)
				}
			}

			// Each node queries every node (incl. itself) with its own id;
			// the handler replies to the asker with (answerer, asker).
			var mu sync.Mutex
			replies := make(map[int][]Pair)
			var wg sync.WaitGroup
			for i := 0; i < p; i++ {
				eps[i].StartLevel(0, ChanForward, ChanBackward)
			}
			for i := 0; i < p; i++ {
				wg.Add(1)
				go func(i int) { // generator: backward queries
					defer wg.Done()
					for dst := 0; dst < p; dst++ {
						err := sendTo(eps[i], ChanBackward, dst,
							Pair{graph.Vertex(dst), graph.Vertex(i)})
						if err != nil {
							t.Error(err)
							return
						}
					}
					if err := eps[i].CloseChannel(ChanBackward); err != nil {
						t.Error(err)
					}
				}(i)
				wg.Add(1)
				go func(i int) { // handler
					defer wg.Done()
					backOpen, fwdOpen := true, true
					for backOpen || fwdOpen {
						ev := eps[i].Recv()
						switch ev.Type {
						case EvError:
							t.Error(ev.Err)
							return
						case EvData:
							if ev.Channel == ChanBackward {
								for _, pr := range ev.Batch.Pairs {
									asker := int(pr[1])
									err := sendTo(eps[i], ChanForward, asker,
										Pair{graph.Vertex(i), pr[1]})
									if err != nil {
										t.Error(err)
										return
									}
								}
							} else {
								mu.Lock()
								replies[i] = append(replies[i], ev.Batch.Pairs...)
								mu.Unlock()
							}
						case EvChannelClosed:
							if ev.Channel == ChanBackward {
								backOpen = false
								if err := eps[i].CloseChannel(ChanForward); err != nil {
									t.Error(err)
									return
								}
							} else {
								fwdOpen = false
							}
						}
					}
				}(i)
			}
			wg.Wait()

			// Every node must hold exactly p replies, one from each peer.
			for i := 0; i < p; i++ {
				if len(replies[i]) != p {
					t.Fatalf("node %d got %d replies, want %d", i, len(replies[i]), p)
				}
				seen := map[graph.Vertex]bool{}
				for _, pr := range replies[i] {
					if int(pr[1]) != i {
						t.Fatalf("node %d got a reply addressed to %d", i, pr[1])
					}
					if seen[pr[0]] {
						t.Fatalf("node %d got duplicate reply from %d", i, pr[0])
					}
					seen[pr[0]] = true
				}
			}
		})
	}
}
