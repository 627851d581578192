package main

// The output checker. It holds the benchmark's own copy of every graph
// it sends or solves, in the requester's node numbering, and replays
// returned move lists under the rules of the weighted red-blue pebble
// game as the paper states them (Definitions 2.1 and 2.2):
//
//	M1(v) load:    v holds blue and no red; adds red (cost w_v)
//	M2(v) store:   v holds red and no blue; adds blue (cost w_v)
//	M3(v) compute: v is no source, holds no red, every parent holds red; adds red
//	M4(v) delete:  v holds red; removes it
//
// Sources start blue, every sink must end blue, and the total weight of
// red nodes may never exceed the budget. The bounds of Proposition 2.3
// (existence) and Proposition 2.4 (lower bound) are computed here too.
// Nothing in this file calls the program's own simulator or bounds.

import (
	"encoding/json"
	"fmt"
	"math"

	"wrbpg/internal/cdag"
	"wrbpg/internal/solve"
)

// graph is the checker's copy of a CDAG.
type graph struct {
	w        []int64
	parents  [][]int32
	children []int
}

// copyGraph takes the weights and edges of a library graph.
func copyGraph(g *cdag.Graph) *graph {
	out := &graph{w: make([]int64, g.Len()), parents: make([][]int32, g.Len()), children: make([]int, g.Len())}
	for v := 0; v < g.Len(); v++ {
		out.w[v] = g.Weight(cdag.NodeID(v))
		for _, p := range g.Parents(cdag.NodeID(v)) {
			out.parents[v] = append(out.parents[v], int32(p))
			out.children[p]++
		}
	}
	return out
}

// withWeights returns a copy with per-node weight overrides applied.
func (g *graph) withWeights(ds []delta) *graph {
	out := &graph{w: append([]int64(nil), g.w...), parents: g.parents, children: g.children}
	for _, d := range ds {
		out.w[d.Node] = d.WeightBits
	}
	return out
}

func (g *graph) isSource(v int) bool { return len(g.parents[v]) == 0 }
func (g *graph) isSink(v int) bool   { return g.children[v] == 0 }

// lowerBound is Proposition 2.4: every source is loaded and every sink
// stored at least once.
func (g *graph) lowerBound() int64 {
	var lb int64
	for v := range g.w {
		if g.isSource(v) {
			lb += g.w[v]
		}
		if g.isSink(v) {
			lb += g.w[v]
		}
	}
	return lb
}

// existenceBound is Proposition 2.3: a schedule exists exactly when
// the budget holds every non-source node together with its parents.
func (g *graph) existenceBound() int64 {
	var b int64
	for v := range g.w {
		if g.isSource(v) {
			continue
		}
		s := g.w[v]
		for _, p := range g.parents[v] {
			s += g.w[p]
		}
		if s > b {
			b = s
		}
	}
	return b
}

// delta is one node-weight override, as the wire carries it.
type delta struct {
	Node       int64 `json:"node"`
	WeightBits int64 `json:"weight_bits"`
}

// move is one step of a returned schedule, as the wire carries it.
type move struct {
	Kind string `json:"kind"`
	Node int32  `json:"node"`
}

// replayed is what a valid schedule costs and needs.
type replayed struct {
	cost, peak int64
	kinds      map[string]int
}

// replay checks a move list against the rules and returns its cost,
// its peak red weight and its move counts.
func replay(g *graph, budget int64, moves []move) (replayed, error) {
	n := len(g.w)
	red := make([]bool, n)
	blue := make([]bool, n)
	for v := 0; v < n; v++ {
		blue[v] = g.isSource(v)
	}
	r := replayed{kinds: map[string]int{"M1": 0, "M2": 0, "M3": 0, "M4": 0}}
	var inRed int64
	for i, m := range moves {
		v := int(m.Node)
		if v < 0 || v >= n {
			return r, fmt.Errorf("move %d %s(%d): node out of range", i, m.Kind, v)
		}
		switch m.Kind {
		case "M1":
			if !blue[v] || red[v] {
				return r, fmt.Errorf("move %d M1(%d): needs blue and no red", i, v)
			}
			inRed += g.w[v]
			red[v] = true
			r.cost += g.w[v]
		case "M2":
			if !red[v] || blue[v] {
				return r, fmt.Errorf("move %d M2(%d): needs red and no blue", i, v)
			}
			blue[v] = true
			r.cost += g.w[v]
		case "M3":
			if red[v] || g.isSource(v) {
				return r, fmt.Errorf("move %d M3(%d): node is red already or a source", i, v)
			}
			for _, p := range g.parents[v] {
				if !red[p] {
					return r, fmt.Errorf("move %d M3(%d): parent %d holds no red", i, v, p)
				}
			}
			inRed += g.w[v]
			red[v] = true
		case "M4":
			if !red[v] {
				return r, fmt.Errorf("move %d M4(%d): node holds no red", i, v)
			}
			inRed -= g.w[v]
			red[v] = false
		default:
			return r, fmt.Errorf("move %d: unknown kind %q", i, m.Kind)
		}
		if inRed > budget {
			return r, fmt.Errorf("move %d %s(%d): red weight %d over budget %d", i, m.Kind, v, inRed, budget)
		}
		if inRed > r.peak {
			r.peak = inRed
		}
		r.kinds[m.Kind]++
	}
	for v := 0; v < n; v++ {
		if g.isSink(v) && !blue[v] {
			return r, fmt.Errorf("sink %d does not end blue", v)
		}
	}
	return r, nil
}

// costBlock is the per-request accounting the server stamps on answers.
type costBlock struct {
	SourceTier  string `json:"source_tier"`
	QueueWaitUS int64  `json:"queue_wait_us"`
	SolveWallUS int64  `json:"solve_wall_us"`
}

// anytimeBlock is the search report of a general-DAG answer.
type anytimeBlock struct {
	Complete     bool  `json:"complete"`
	SeedCostBits int64 `json:"seed_cost_bits"`
	Expanded     int64 `json:"expanded"`
	Pruned       int64 `json:"pruned"`
	Deduped      int64 `json:"deduped"`
}

// schedAnswer is a /v1/schedule response.
type schedAnswer struct {
	Source         string         `json:"source"`
	FallbackCause  string         `json:"fallback_cause"`
	BudgetBits     int64          `json:"budget_bits"`
	CostBits       int64          `json:"cost_bits"`
	PeakBits       int64          `json:"peak_bits"`
	LowerBoundBits int64          `json:"lower_bound_bits"`
	MoveCount      int            `json:"move_count"`
	MoveKinds      map[string]int `json:"move_kinds"`
	Anytime        *anytimeBlock  `json:"anytime"`
	Schedule       []move         `json:"schedule"`
	ElapsedUS      int64          `json:"elapsed_us"`
	Cache          string         `json:"cache"`
	Cost           *costBlock     `json:"cost"`
}

// sweepItem is one budget of a sweep or patch answer.
type sweepItem struct {
	BudgetBits int64           `json:"budget_bits"`
	CostBits   int64           `json:"cost_bits"`
	Feasible   bool            `json:"feasible"`
	Error      json.RawMessage `json:"error"`
}

// sweepAnswer is a /v1/schedule/sweep or /v1/schedule/patch response.
type sweepAnswer struct {
	LowerBoundBits   int64       `json:"lower_bound_bits"`
	MinExistenceBits int64       `json:"min_existence_bits"`
	Items            []sweepItem `json:"items"`
	Session          string      `json:"session"`
	ElapsedUS        int64       `json:"elapsed_us"`
	Cost             *costBlock  `json:"cost"`
}

// expect is what the checker knows about one request before it is
// answered: the instance as the benchmark sees it, and the cold
// reference costs when the instance has a deterministic optimum.
type expect struct {
	g      *graph
	lb     int64 // Proposition 2.4 on g
	exist  int64 // Proposition 2.3 on g
	ref    map[int64]int64
	family string
	// tilingMin is the smallest budget an MVM tile configuration fits;
	// MVM sweep items from exist up to it hit the known feasibility
	// fault.
	tilingMin int64
}

func newExpect(family string, g *graph, ref map[int64]int64) *expect {
	return &expect{g: g, lb: g.lowerBound(), exist: g.existenceBound(), ref: ref, family: family}
}

// errKnownFault marks an answer that is wrong in exactly the way the
// documented MVM sweep fault makes it wrong: the operation counts as
// failed instead of stopping the run.
var errKnownFault = fmt.Errorf("MVM sweep item infeasible between the Proposition 2.3 bound and the tiling minimum")

// checkSchedule checks a /v1/schedule answer at the given budget.
func (e *expect) checkSchedule(a *schedAnswer, budget int64, withMoves bool) error {
	if a.BudgetBits != budget {
		return fmt.Errorf("budget_bits %d, sent %d", a.BudgetBits, budget)
	}
	if a.LowerBoundBits != e.lb {
		return fmt.Errorf("lower_bound_bits %d, Proposition 2.4 gives %d", a.LowerBoundBits, e.lb)
	}
	if a.CostBits < e.lb {
		return fmt.Errorf("cost_bits %d below the lower bound %d", a.CostBits, e.lb)
	}
	if a.PeakBits > budget {
		return fmt.Errorf("peak_bits %d over budget %d", a.PeakBits, budget)
	}
	if withMoves {
		if len(a.Schedule) != a.MoveCount {
			return fmt.Errorf("%d moves returned, move_count says %d", len(a.Schedule), a.MoveCount)
		}
		r, err := replay(e.g, budget, a.Schedule)
		if err != nil {
			return err
		}
		if r.cost != a.CostBits {
			return fmt.Errorf("replayed cost %d, cost_bits %d", r.cost, a.CostBits)
		}
		if r.peak != a.PeakBits {
			return fmt.Errorf("replayed peak %d, peak_bits %d", r.peak, a.PeakBits)
		}
		for k, c := range r.kinds {
			if a.MoveKinds[k] != c {
				return fmt.Errorf("replayed %d %s moves, move_kinds says %d", c, k, a.MoveKinds[k])
			}
		}
	} else if len(a.Schedule) != 0 {
		return fmt.Errorf("moves returned without include_moves")
	}
	// Every DP request carries a deadline long enough to solve it, so a
	// DP answer must be optimal, except on MVM below the tiling
	// minimum, where no tile fits and the baseline answers.
	dp := e.ref != nil
	switch a.Source {
	case "optimal":
		if err := e.checkRef(budget, a.CostBits); err != nil {
			return err
		}
	case "anytime":
		if dp {
			return fmt.Errorf("anytime answer on a %s instance", e.family)
		}
		if a.Anytime == nil {
			return fmt.Errorf("anytime answer without its search report")
		}
		if a.CostBits > a.Anytime.SeedCostBits {
			return fmt.Errorf("anytime cost %d above its seed cost %d", a.CostBits, a.Anytime.SeedCostBits)
		}
	case "fallback":
		if a.FallbackCause == "" {
			return fmt.Errorf("fallback answer without fallback_cause")
		}
		if dp && !e.belowTiling(budget) {
			return fmt.Errorf("fallback answer (cause %s) on a %s instance at budget %d, which the DP solves",
				a.FallbackCause, e.family, budget)
		}
	default:
		return fmt.Errorf("unknown source %q", a.Source)
	}
	return nil
}

// belowTiling reports whether budget lies below the MVM tiling
// minimum, where no tile configuration fits.
func (e *expect) belowTiling(budget int64) bool {
	return e.family == solve.FamilyMVM && budget < e.tilingMin
}

// checkSweep checks a sweep or patch answer for the listed budgets. It
// returns errKnownFault when the only fault is the documented MVM one.
func (e *expect) checkSweep(a *sweepAnswer, budgets []int64) error {
	if a.LowerBoundBits != e.lb {
		return fmt.Errorf("lower_bound_bits %d, Proposition 2.4 gives %d", a.LowerBoundBits, e.lb)
	}
	if a.MinExistenceBits != e.exist {
		return fmt.Errorf("min_existence_bits %d, Proposition 2.3 gives %d", a.MinExistenceBits, e.exist)
	}
	if len(a.Items) != len(budgets) {
		return fmt.Errorf("%d items for %d budgets", len(a.Items), len(budgets))
	}
	fault := false
	for i, it := range a.Items {
		b := budgets[i]
		if it.BudgetBits != b {
			return fmt.Errorf("item %d answers budget %d, sent %d", i, it.BudgetBits, b)
		}
		if len(it.Error) > 0 && string(it.Error) != "null" {
			return fmt.Errorf("item %d (budget %d) aborted: %s", i, b, it.Error)
		}
		if it.Feasible != (b >= e.exist) {
			if !it.Feasible && e.belowTiling(b) {
				fault = true
				continue
			}
			return fmt.Errorf("budget %d: feasible=%v, Proposition 2.3 bound is %d", b, it.Feasible, e.exist)
		}
		if !it.Feasible {
			continue
		}
		if it.CostBits < e.lb {
			return fmt.Errorf("budget %d: cost %d below the lower bound %d", b, it.CostBits, e.lb)
		}
		if err := e.checkRef(b, it.CostBits); err != nil {
			return err
		}
	}
	if err := checkMonotone(budgets, func(i int) (int64, bool) { return a.Items[i].CostBits, a.Items[i].Feasible }); err != nil {
		return err
	}
	if fault {
		return errKnownFault
	}
	return nil
}

// checkRef compares an optimal cost with the cold single-threaded
// reference, when the instance has one (every DP family does).
func (e *expect) checkRef(budget, cost int64) error {
	if e.ref == nil {
		return nil
	}
	c, ok := e.ref[budget]
	if !ok {
		return fmt.Errorf("no reference cost for budget %d", budget)
	}
	if c != cost {
		return fmt.Errorf("budget %d: cost %d, cold single-threaded solve gives %d", budget, cost, c)
	}
	return nil
}

// checkMonotone asserts that cost never rises with budget among the
// feasible points.
func checkMonotone(budgets []int64, at func(i int) (int64, bool)) error {
	for i := range budgets {
		ci, oki := at(i)
		if !oki {
			continue
		}
		for j := range budgets {
			cj, okj := at(j)
			if okj && budgets[j] > budgets[i] && cj > ci {
				return fmt.Errorf("cost rises with budget: %d at %d, %d at %d", ci, budgets[i], cj, budgets[j])
			}
		}
	}
	return nil
}

// logRatio accumulates the geometric mean of cost over lower bound.
type logRatio struct {
	sum float64
	n   int
}

func (l *logRatio) add(cost, lb int64) {
	l.sum += math.Log(float64(cost) / float64(lb))
	l.n++
}

func (l logRatio) value() float64 {
	if l.n == 0 {
		return 0
	}
	return math.Exp(l.sum / float64(l.n))
}
