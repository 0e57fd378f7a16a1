package core

// Direction is the traversal strategy of one BFS level.
type Direction int

const (
	// TopDown expands the frontier outward (Forward Generator -> Forward
	// Handler).
	TopDown Direction = iota
	// BottomUp lets unvisited vertices probe the frontier (Backward
	// Generator -> Backward Handler -> Forward Handler).
	BottomUp
)

func (d Direction) String() string {
	if d == BottomUp {
		return "bottomup"
	}
	return "topdown"
}

// Policy implements TRAVERSAL_POLICY (Algorithm 1): the runtime-statistics
// heuristic of Beamer et al. [7] deciding each level's direction.
//
//   - Switch top-down -> bottom-up when the frontier's outgoing edge count
//     m_f exceeds m_u/alpha, where m_u is the edge count of unexplored
//     vertices: scanning from the unvisited side is then cheaper.
//   - Switch bottom-up -> top-down when the frontier shrinks below
//     n/beta vertices: scanning every unvisited vertex no longer pays.
type Policy struct {
	Alpha, Beta float64
	// Enabled false pins the policy to top-down (the ablation baseline
	// and the behaviour of prior heterogeneous entries the paper credits
	// its win over: "they failed ... for the reason direction
	// optimization method is not included").
	Enabled bool

	state Direction
}

// NewPolicy returns a policy starting in top-down state.
func NewPolicy(alpha, beta float64, enabled bool) *Policy {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	if beta <= 0 {
		beta = DefaultBeta
	}
	return &Policy{Alpha: alpha, Beta: beta, Enabled: enabled}
}

// Next decides the direction for the coming level from global statistics:
// frontier vertex count nf, frontier edge count mf, unexplored edge count
// mu and total vertex count n. Deterministic: every node computes the same
// answer from the same allreduced statistics.
func (p *Policy) Next(nf, mf, mu, n int64) Direction {
	if !p.Enabled {
		return TopDown
	}
	switch p.state {
	case TopDown:
		if float64(mf) > float64(mu)/p.Alpha {
			p.state = BottomUp
		}
	case BottomUp:
		if float64(nf) < float64(n)/p.Beta {
			p.state = TopDown
		}
	}
	return p.state
}

// State reports the current direction without advancing.
func (p *Policy) State() Direction { return p.state }
