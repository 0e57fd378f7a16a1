package algos

import (
	"fmt"
	"slices"
	"testing"

	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

// TestRelaxKernelsMatchOraclesOnFamilies runs both min-relaxation kernels —
// WCC at weight zero, SSSP on drawn weights — on every graph family against
// the serial oracles, at node counts that leave most families' N no
// multiple of the node count, on both transports and at two worker widths.
// WCC's component count must equal the oracle's distinct labels on graphs
// with singletons and isolated edges (every family's stragglers).
func TestRelaxKernelsMatchOraclesOnFamilies(t *testing.T) {
	for _, f := range testutil.Families(t, 600) {
		wantLabel := ReferenceWCC(f.G)
		components := map[graph.Vertex]bool{}
		for _, l := range wantLabel {
			components[l] = true
		}
		wg := testutil.Weighted(t, f.G, 5)
		wantDist := ReferenceSSSP(wg, f.Root)
		for _, nodes := range []int{1, 3, 6} {
			for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
				for _, workers := range []int{1, 3} {
					t.Run(fmt.Sprintf("%s/nodes=%d/%s/workers=%d", f.Name, nodes, transport, workers), func(t *testing.T) {
						cfg := machine(nodes, transport)
						cfg.Workers = workers
						wcc, err := WCC(cfg, f.G)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(wcc.Label, wantLabel) {
							t.Error("WCC labels differ from ReferenceWCC")
						}
						if wcc.Components != int64(len(components)) {
							t.Errorf("%d components, the oracle has %d distinct labels", wcc.Components, len(components))
						}
						sssp, err := SSSP(cfg, wg, f.Root)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(sssp.Dist, wantDist) {
							t.Error("SSSP distances differ from ReferenceSSSP")
						}
					})
				}
			}
		}
	}
}
