// Package shuffle implements the paper's contention-free data shuffling
// (Section 4.3): inside one 64-CPE cluster, CPEs are assigned the roles
// producer, router and consumer, arranged by mesh column so that every
// register-bus transfer moves in a fixed direction (rows left-to-right,
// router column 4 upward, router column 5 downward). The resulting
// communication graph is acyclic, so the synchronous register rendezvous
// can never deadlock, and each consumer owns a disjoint set of output
// destinations, so no atomic operations are needed on main memory.
//
// The package runs the algorithm as mesh programs on the cycle-stepped
// sw.Cluster simulator (RunMesh: deadlock freedom and modelled
// register-shuffle bandwidth) and prices it in closed form (ModelSeconds,
// ModelBandwidth), which is how large BFS runs see it: the CPE engine's
// module bandwidth.
package shuffle

import (
	"fmt"

	"swbfs/internal/sw"
)

// Role is a CPE's function in the shuffle pipeline.
type Role int

const (
	// Producer CPEs read input data from main memory in DMA batches and
	// emit one register message per record.
	Producer Role = iota
	// Router CPEs move records between mesh rows, one column routing
	// upward and one downward — the two directions that make the route
	// graph acyclic ("two columns of routers for upward and downward
	// pass, which is necessary for deadlock-free configuration").
	Router
	// Consumer CPEs buffer records per destination and write full batches
	// back to main memory with DMA; each destination belongs to exactly
	// one consumer, so writes never contend.
	Consumer
)

func (r Role) String() string {
	switch r {
	case Producer:
		return "producer"
	case Router:
		return "router"
	case Consumer:
		return "consumer"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Layout fixes which mesh columns hold which role. The default follows
// Figure 6: four producer columns, an upward and a downward router column,
// and two consumer columns.
type Layout struct {
	ProducerCols  int // columns [0, ProducerCols) are producers
	RouterUpCol   int // column routing upward (toward row 0)
	RouterDownCol int // column routing downward (toward the last row)
	// Consumer columns are the remaining columns on the right.
}

// DefaultLayout is the Figure 6 assignment for the 8x8 mesh.
func DefaultLayout() Layout {
	return Layout{ProducerCols: 4, RouterUpCol: 4, RouterDownCol: 5}
}

// Validate checks the layout against the mesh geometry.
func (l Layout) Validate() error {
	if l.ProducerCols < 1 || l.ProducerCols > sw.MeshCols-3 {
		return fmt.Errorf("shuffle: %d producer columns out of range [1, %d]", l.ProducerCols, sw.MeshCols-3)
	}
	if l.RouterUpCol != l.ProducerCols || l.RouterDownCol != l.ProducerCols+1 {
		return fmt.Errorf("shuffle: router columns must directly follow the producers (got up=%d down=%d after %d producer cols)",
			l.RouterUpCol, l.RouterDownCol, l.ProducerCols)
	}
	if l.ConsumerCols() < 1 {
		return fmt.Errorf("shuffle: no consumer columns left")
	}
	return nil
}

// ConsumerCols returns the number of consumer columns.
func (l Layout) ConsumerCols() int { return sw.MeshCols - l.ProducerCols - 2 }

// NumProducers, NumRouters, NumConsumers count CPEs per role.
func (l Layout) NumProducers() int { return l.ProducerCols * sw.MeshRows }
func (l Layout) NumRouters() int   { return 2 * sw.MeshRows }
func (l Layout) NumConsumers() int { return l.ConsumerCols() * sw.MeshRows }

// Role classifies a CPE ID under this layout.
func (l Layout) Role(cpe int) Role {
	switch col := sw.Col(cpe); {
	case col < l.ProducerCols:
		return Producer
	case col == l.RouterUpCol || col == l.RouterDownCol:
		return Router
	default:
		return Consumer
	}
}

// ProducerIDs returns the producer CPE IDs in deterministic order.
func (l Layout) ProducerIDs() []int {
	ids := make([]int, 0, l.NumProducers())
	for row := 0; row < sw.MeshRows; row++ {
		for col := 0; col < l.ProducerCols; col++ {
			ids = append(ids, sw.ID(row, col))
		}
	}
	return ids
}

// ConsumerIDs returns the consumer CPE IDs in deterministic order
// (row-major over the consumer columns).
func (l Layout) ConsumerIDs() []int {
	ids := make([]int, 0, l.NumConsumers())
	for row := 0; row < sw.MeshRows; row++ {
		for col := l.RouterDownCol + 1; col < sw.MeshCols; col++ {
			ids = append(ids, sw.ID(row, col))
		}
	}
	return ids
}

// ConsumerIndex maps a destination to the dense index of the consumer that
// owns it. The ownership map is what makes consumer writes contention-free:
// destination buffers never overlap between consumers.
func (l Layout) ConsumerIndex(dest int) int {
	if dest < 0 {
		panic(fmt.Sprintf("shuffle: negative destination %d", dest))
	}
	return dest % l.NumConsumers()
}

// ConsumerCPE maps a destination to the owning consumer's CPE ID.
func (l Layout) ConsumerCPE(dest int) int {
	idx := l.ConsumerIndex(dest)
	row := idx / l.ConsumerCols()
	col := l.RouterDownCol + 1 + idx%l.ConsumerCols()
	return sw.ID(row, col)
}
