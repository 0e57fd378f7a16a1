package obs

import "testing"

// BenchmarkFlightRecord is the flight recorder's ledger line: one send
// event on the source's ring and one recv event on the destination's, the
// two records every delivered message costs, on a 64-node recorder with the
// rings already wrapped. ns/event is the budget figure quoted in
// docs/OBSERVABILITY.md; allocs/op must be 0.
func BenchmarkFlightRecord(b *testing.B) {
	const nodes = 64
	fr := NewFlightRecorder(0)
	fr.SetStreamNames([]string{"data", "end", "relay-data", "relay-end"}, []string{"forward", "backward"})
	fr.BeginRun(0, "bfs", nodes, "direct")
	record := func(i int) {
		src, dst := i%nodes, (i/nodes)%nodes
		if err := fr.Send(src, dst, 0, 0, 0, 1, 0, NoEnd, ""); err != nil {
			b.Fatal(err)
		}
		if err := fr.Recv(dst, src, 0, 0, 1, 0, NoEnd); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < nodes*DefaultFlightCapacity; i++ {
		record(i) // fill every ring: steady state overwrites, it does not append
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/event")
}
