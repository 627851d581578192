package main

// The three HTTP workloads: serve-hot, serve-churn and cdag-anytime.
// Each runs an in-process server on a loopback port and one
// closed-loop client that sends whole rounds of requests and checks
// every answer.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"wrbpg/internal/cdag"
	"wrbpg/internal/loadgen"
	"wrbpg/internal/mvm"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
	"wrbpg/internal/wcfg"
)

// infCost is the solvers' infeasibility sentinel (any cost at or above
// it means no schedule exists).
const infCost = math.MaxInt64 / 4

// dpTimeoutMS is the deadline of every DP request: generous enough
// that no DP solve falls back.
const dpTimeoutMS = 10000

// shape is one parametric instance the HTTP workloads send.
type shape struct {
	family               string
	n, d, m, k, height   int
	weights              string // "equal" or "da"
	inst                 solve.Instance
	g                    *graph
	exist, lb, tilingMin int64
}

// newShape builds the benchmark's copy of a parametric instance.
func newShape(family string, n, d, m, k, height int, weights string) (*shape, error) {
	s := &shape{family: family, n: n, d: d, m: m, k: k, height: height, weights: weights}
	cfg := wcfg.Equal(wcfg.DefaultWordBits)
	if weights == "da" {
		cfg = wcfg.DoubleAccumulator(wcfg.DefaultWordBits)
	}
	s.inst = solve.Instance{Family: family, N: n, D: d, M: m, K: k, Height: height, Cfg: cfg}
	_, g, err := s.inst.Build()
	if err != nil {
		return nil, err
	}
	s.g = copyGraph(g)
	s.exist, s.lb = s.g.existenceBound(), s.g.lowerBound()
	s.tilingMin = s.exist
	if family == solve.FamilyMVM {
		mg, err := mvm.Build(m, n, cfg)
		if err != nil {
			return nil, err
		}
		s.tilingMin = mg.TilingMinBudget()
	}
	return s, nil
}

// loadgenShapes is the wrbpgload roster under one weight preset.
func loadgenShapes(weights string) ([]*shape, error) {
	var out []*shape
	for _, ls := range loadgen.DefaultShapes() {
		s, err := newShape(ls.Family, ls.N, ls.D, ls.M, ls.K, ls.Height, weights)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (s *shape) weightSpec() wire.WeightSpec { return wire.WeightSpec{Name: s.weights} }

func (s *shape) scheduleOp(exp *expect, budget int64, moves bool) *httpOp {
	return &httpOp{path: "/v1/schedule", exp: exp, budget: budget, moves: moves, body: mustJSON(wire.ScheduleRequest{
		Family: s.family, N: s.n, D: s.d, M: s.m, K: s.k, Height: s.height, Weights: s.weightSpec(),
		BudgetBits: budget, IncludeMoves: moves, TimeoutMS: dpTimeoutMS,
	})}
}

func (s *shape) sweepOp(exp *expect, budgets []int64) *httpOp {
	return &httpOp{path: "/v1/schedule/sweep", exp: exp, budgets: budgets, body: mustJSON(wire.SweepRequest{
		Family: s.family, N: s.n, D: s.d, M: s.m, K: s.k, Height: s.height, Weights: s.weightSpec(),
		BudgetsBits: budgets, TimeoutMS: dpTimeoutMS,
	})}
}

func (s *shape) patchOp(exp *expect, ds []delta, budgets []int64) *httpOp {
	wd := make([]wire.PatchDelta, len(ds))
	for i, d := range ds {
		wd[i] = wire.PatchDelta{Node: d.Node, WeightBits: d.WeightBits}
	}
	return &httpOp{path: "/v1/schedule/patch", exp: exp, budgets: budgets, body: mustJSON(wire.PatchRequest{
		Family: s.family, N: s.n, D: s.d, K: s.k, Height: s.height, Weights: s.weightSpec(),
		Deltas: wd, BudgetsBits: budgets, TimeoutMS: dpTimeoutMS,
	})}
}

// expectFor computes cold single-threaded reference costs for the
// shape (with deltas, if any) at every budget and returns the checker's
// expectations. The reference table itself must never rise with budget.
func (s *shape) expectFor(ds []delta, budgets []int64) (*expect, error) {
	inst := s.inst
	g := s.g
	if len(ds) > 0 {
		inst.Deltas = cdag.CanonicalDeltas(s.canonical(ds))
		g = g.withWeights(ds)
	}
	sess, err := solve.NewSession(inst)
	if err != nil {
		return nil, fmt.Errorf("%s reference: %w", inst.Label(), err)
	}
	ref := map[int64]int64{}
	sorted := sortedBudgets(budgets)
	for _, b := range sorted {
		if _, ok := ref[b]; ok {
			continue
		}
		c, err := sess.CostCtx(context.Background(), noLimits, b)
		if err != nil {
			return nil, fmt.Errorf("%s reference at %d: %w", inst.Label(), b, err)
		}
		ref[b] = c
	}
	if err := checkMonotone(sorted, func(i int) (int64, bool) { c := ref[sorted[i]]; return c, c < infCost }); err != nil {
		return nil, fmt.Errorf("%s reference: %w", inst.Label(), err)
	}
	e := newExpect(s.family, g, ref)
	e.tilingMin = s.tilingMin
	return e, nil
}

// pickBudgets draws k distinct budgets in [lo, hi], sorted.
func pickBudgets(rng *rand.Rand, k int, lo, hi int64) []int64 {
	set := map[int64]bool{}
	for len(set) < k && int64(len(set)) <= hi-lo {
		set[lo+rng.Int63n(hi-lo+1)] = true
	}
	var out []int64
	for b := range set {
		out = append(out, b)
	}
	return sortedBudgets(out)
}

// stratBudgets draws one budget from each of k equal parts of [lo, hi],
// so the spread of a roster over the range does not depend on the seed.
func stratBudgets(rng *rand.Rand, k int, lo, hi int64) []int64 {
	out := make([]int64, k)
	for i := range out {
		a, b := lo+(hi-lo)*int64(i)/int64(k), lo+(hi-lo)*int64(i+1)/int64(k)
		out[i] = a + rng.Int63n(max(b-a, 1))
	}
	return sortedBudgets(out)
}

// patchTarget draws a weight patch that keeps the instance valid: on a
// DWT only input weights change, which keeps the Lemma 3.2 weight
// order; on a k-tree any node may change.
func (s *shape) patchTarget(rng *rand.Rand) []delta {
	n := 1 + rng.Intn(3)
	seen := map[int64]bool{}
	var ds []delta
	for len(ds) < n {
		var v int64
		if s.family == solve.FamilyDWT {
			v = int64(rng.Intn(s.n)) // layer-1 nodes come first
		} else {
			v = int64(rng.Intn(len(s.g.w)))
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		ds = append(ds, delta{Node: v, WeightBits: 8 * int64(1+rng.Intn(8))})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Node < ds[j].Node })
	return ds
}

func (s *shape) canonical(ds []delta) []cdag.WeightDelta {
	out := make([]cdag.WeightDelta, len(ds))
	for i, d := range ds {
		out[i] = cdag.WeightDelta{Node: cdag.NodeID(d.Node), Weight: d.WeightBits}
	}
	return out
}

// httpBase holds what the three HTTP workloads share.
type httpBase struct {
	seed int64
	srv  *server
	cl   *client
}

func (h *httpBase) boot() error {
	srv, err := bootServer()
	if err != nil {
		return err
	}
	h.srv, h.cl = srv, newClient(srv.url)
	return nil
}

func (h *httpBase) close() {
	if h.cl != nil {
		h.cl.close()
	}
	h.srv.close()
}

func (h *httpBase) client() *client { return h.cl }

// procs is 1 for the DP workloads: with one request in flight, a
// second P only hands each request between two OS threads, and on a
// shared host the wake-up across vCPUs then sets the latency (see
// README.md).
func (h *httpBase) procs() int { return 1 }

func (h *httpBase) fetchSpans(ids []string, o *observed) error { return h.cl.fetchSpans(ids, o) }

// cacheCounts reads the schedule cache's hit and lookup counters.
func (h *httpBase) cacheCounts() (hits, lookups float64, err error) {
	v, err := h.cl.metricsCounters("wrbpg_cache_hits_total", "wrbpg_cache_misses_total", "wrbpg_cache_shared_total")
	if err != nil {
		return 0, 0, err
	}
	return v["wrbpg_cache_hits_total"], v["wrbpg_cache_hits_total"] + v["wrbpg_cache_misses_total"] + v["wrbpg_cache_shared_total"], nil
}

// runOps sends a round's operations in order; their answers are
// checked after the round.
func runOps(c *client, ops []*httpOp, rec *clientRec) error {
	for _, op := range ops {
		if err := c.send(op, rec); err != nil {
			return err
		}
	}
	return nil
}

// roundRNG is the generator of round r: the same seed gives the same
// operation sequence.
func roundRNG(seed int64, r int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
}

// ---- serve-hot ----

// serveHot sends a small roster of hot keys: after warm-up every answer
// comes from the schedule cache or a warm sweep session.
type serveHot struct {
	httpBase
	ops []*httpOp
	in  probeInputs
}

func newServeHot() *serveHot { return &serveHot{} }

const hotBudgets, hotSweepBudgets = 8, 8

func (w *serveHot) setup(seed int64) error {
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	shapes, err := loadgenShapes("equal")
	if err != nil {
		return err
	}
	for _, s := range shapes {
		// MVM budgets start at the tiling minimum: below it the answer
		// is an uncacheable fallback (serve-churn covers that range).
		hot := stratBudgets(rng, hotBudgets, s.tilingMin, 2*s.exist)
		sweep := stratBudgets(rng, hotSweepBudgets, s.tilingMin, 2*s.exist)
		exp, err := s.expectFor(nil, append(append([]int64{}, hot...), sweep...))
		if err != nil {
			return err
		}
		for i, b := range hot {
			w.ops = append(w.ops, s.scheduleOp(exp, b, i%2 == 1))
			w.in.hit = append(w.in.hit, w.ops[len(w.ops)-1].body)
		}
		w.ops = append(w.ops, s.sweepOp(exp, sweep))
		w.in.sweep = append(w.in.sweep, w.ops[len(w.ops)-1].body)
		w.in.insts = append(w.in.insts, probeInst{inst: s.inst, budgets: append(hot, sweep...)})
		w.in.graphs = append(w.in.graphs, probeGraph{g: mustBuild(s.inst), budget: hot[0]})
	}
	if err := setupChecks(seed); err != nil {
		return err
	}
	if err := w.boot(); err != nil {
		return err
	}
	warm := newRec(false)
	for _, op := range w.ops {
		if err := w.cl.exec(op, warm); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *serveHot) round(r int, rec *clientRec) error {
	return runOps(w.cl, w.roundOps(r), rec)
}

// roundOps is round r: every hot operation once, in a seeded order.
func (w *serveHot) roundOps(r int) []*httpOp {
	ops := make([]*httpOp, len(w.ops))
	for i, j := range roundRNG(w.seed, r).Perm(len(w.ops)) {
		ops[i] = w.ops[j]
	}
	return ops
}

func (w *serveHot) probe(m metrics) error {
	w.in.fill(defaultProbe(w.seed))
	return w.in.run(m)
}

// ---- serve-churn ----

// serveChurn sends a write- and miss-heavy mix: schedule keys from a
// population larger than the schedule cache, patches with budget
// lists, plain sweeps that revert patched sessions, and MVM sweeps
// across the Proposition 2.3 bound. Rounds alternate between two
// designs, one per weight preset.
type serveChurn struct {
	httpBase
	designs  []*churnDesign
	mvmSweep *httpOp
	in       probeInputs
}

// churnDesign is the requests of one design: the wrbpgload shapes
// under one weight preset.
type churnDesign struct {
	sched   []*httpOp // the schedule key population, moves and no moves
	patches []*httpOp
	sweeps  []*httpOp
}

func newServeChurn() *serveChurn { return &serveChurn{} }

const (
	churnBudgetSpan    = 320 // schedule keys per shape and client
	churnTargets       = 8   // patch targets per patchable shape
	churnBudgetsPerReq = 6
	churnSchedPerRound = 170
	churnPatchPerRound = 16
	churnSweepPerRound = 13
)

func (w *serveChurn) setup(seed int64) error {
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	for di, weights := range []string{"equal", "da"} {
		shapes, err := loadgenShapes(weights)
		if err != nil {
			return err
		}
		cc := &churnDesign{}
		for _, s := range shapes {
			var pop []int64
			for b := s.exist; b < s.exist+churnBudgetSpan; b++ {
				pop = append(pop, b)
			}
			exp, err := s.expectFor(nil, pop)
			if err != nil {
				return err
			}
			for _, b := range pop {
				cc.sched = append(cc.sched, s.scheduleOp(exp, b, rng.Intn(4) == 0))
			}
			if s.family == solve.FamilyMVM {
				continue
			}
			sweep := pickBudgets(rng, churnBudgetsPerReq, s.exist, 2*s.exist)
			cc.sweeps = append(cc.sweeps, s.sweepOp(exp, sweep))
			pi := probeInst{inst: s.inst, budgets: sweep}
			for t := 0; t < churnTargets; t++ {
				ds := s.patchTarget(rng)
				budgets := pickBudgets(rng, churnBudgetsPerReq, s.exist*3/4, 2*s.exist)
				pexp, err := s.expectFor(ds, budgets)
				if err != nil {
					return err
				}
				cc.patches = append(cc.patches, s.patchOp(pexp, ds, budgets))
				if t < 2 {
					pi.targets = append(pi.targets, s.canonical(ds))
				}
			}
			if di == 0 {
				w.in.insts = append(w.in.insts, pi)
				w.in.graphs = append(w.in.graphs, probeGraph{g: mustBuild(s.inst), budget: s.exist})
			}
		}
		w.designs = append(w.designs, cc)
		for i := 0; i < 32; i++ {
			w.in.miss = append(w.in.miss, cc.sched[rng.Intn(len(cc.sched))].body)
		}
		for _, op := range cc.patches[:8] {
			w.in.patch = append(w.in.patch, op.body)
		}
		for _, op := range cc.sweeps {
			w.in.sweep = append(w.in.sweep, op.body)
		}
	}
	// The MVM sweep runs from the Proposition 2.3 bound to twice it on
	// fixed budgets, so the share of sweeps hitting the known
	// feasibility fault never depends on the seed.
	mvmShape, err := newShape(solve.FamilyMVM, 8, 0, 6, 0, 0, "equal")
	if err != nil {
		return err
	}
	var mb []int64
	for b := mvmShape.exist; b <= 2*mvmShape.exist; b += 8 {
		mb = append(mb, b)
	}
	mexp, err := mvmShape.expectFor(nil, mb)
	if err != nil {
		return err
	}
	w.mvmSweep = mvmShape.sweepOp(mexp, mb)
	// The probe's miss bodies are drawn by the seed; one below the MVM
	// tiling minimum makes every seed's probe reach the fallback span.
	w.in.miss = append(w.in.miss, mvmShape.scheduleOp(nil, mvmShape.exist, true).body)
	if err := setupChecks(seed); err != nil {
		return err
	}
	if err := w.boot(); err != nil {
		return err
	}
	// Warm-up: build every design's sessions once.
	warm := newRec(false)
	for _, d := range w.designs {
		for _, op := range d.sweeps {
			if err := w.cl.exec(op, warm); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

func (w *serveChurn) round(r int, rec *clientRec) error {
	return runOps(w.cl, w.roundOps(r), rec)
}

// roundOps is round r: a fixed count of each request kind drawn from
// one design, plus the MVM sweep, in a seeded order.
func (w *serveChurn) roundOps(r int) []*httpOp {
	rng := roundRNG(w.seed, r)
	cc := w.designs[r%len(w.designs)]
	ops := make([]*httpOp, 0, churnSchedPerRound+churnPatchPerRound+churnSweepPerRound+1)
	for i := 0; i < churnSchedPerRound; i++ {
		ops = append(ops, cc.sched[rng.Intn(len(cc.sched))])
	}
	for i := 0; i < churnPatchPerRound; i++ {
		ops = append(ops, cc.patches[rng.Intn(len(cc.patches))])
	}
	for i := 0; i < churnSweepPerRound; i++ {
		ops = append(ops, cc.sweeps[rng.Intn(len(cc.sweeps))])
	}
	ops = append(ops, w.mvmSweep)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (w *serveChurn) probe(m metrics) error {
	w.in.fill(defaultProbe(w.seed))
	return w.in.run(m)
}

// ---- cdag-anytime ----

// cdagAnytime sends one fresh seeded random CDAG per request to the
// anytime tier, with a budget near the Proposition 2.3 bound and a
// 100 ms deadline. At 50 ms a slow spell of this host pushes the share
// of deadline fallbacks past half, the server's fallback-storm breaker
// opens, and the run switches to baseline answers for seconds at a
// time, so no two runs measure the same thing.
type cdagAnytime struct {
	httpBase
	in probeInputs
}

func newCDAGAnytime() *cdagAnytime { return &cdagAnytime{} }

// procs keeps the default: the anytime search runs one worker per P.
func (w *cdagAnytime) procs() int { return 0 }

const (
	cdagPerRound  = 4
	cdagTimeoutMS = 100
)

// cdagOp builds request k of the seed's stream: a random CDAG of 30–60
// nodes, in the benchmark's own numbering.
func cdagOp(seed int64, k int, timeoutMS int64) (*httpOp, *cdag.Graph) {
	rng := rand.New(rand.NewSource(seed*2_000_003 + int64(k)))
	n := 30 + rng.Intn(31)
	g := cdag.Random(rng.Int63(), n)
	cg := copyGraph(g)
	exist := cg.existenceBound()
	budget := exist + rng.Int63n(exist/4+1)
	exp := newExpect(solve.FamilyCDAG, cg, nil)
	return &httpOp{path: "/v1/schedule", exp: exp, budget: budget, moves: true, body: mustJSON(wire.ScheduleRequest{
		Family: solve.FamilyCDAG, Graph: g, BudgetBits: budget, TimeoutMS: timeoutMS, IncludeMoves: true,
	})}, g
}

func (w *cdagAnytime) setup(seed int64) error {
	w.seed = seed
	for k := 0; k < 8; k++ {
		op, g := cdagOp(seed, -1-k, cdagTimeoutMS)
		w.in.cdagBodies = append(w.in.cdagBodies, op.body)
		w.in.graphs = append(w.in.graphs, probeGraph{g: g, budget: op.budget})
	}
	if err := setupChecks(seed); err != nil {
		return err
	}
	if err := w.boot(); err != nil {
		return err
	}
	op, _ := cdagOp(seed, -100, cdagTimeoutMS)
	if err := w.cl.exec(op, newRec(false)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (w *cdagAnytime) round(r int, rec *clientRec) error {
	return runOps(w.cl, w.roundOps(r), rec)
}

// roundOps is round r: the next requests of the seed's graph stream.
func (w *cdagAnytime) roundOps(r int) []*httpOp {
	ops := make([]*httpOp, cdagPerRound)
	for j := range ops {
		ops[j], _ = cdagOp(w.seed, r*cdagPerRound+j, cdagTimeoutMS)
	}
	return ops
}

func (w *cdagAnytime) probe(m metrics) error {
	w.in.fill(defaultProbe(w.seed))
	return w.in.run(m)
}

// defaultProbe is the shared reference input of the per-layer probes:
// the serve-hot roster, a few distinct keys, patches on the incremental
// shapes and three small general DAGs.
func defaultProbe(seed int64) *probeInputs {
	rng := rand.New(rand.NewSource(seed + 17))
	p := &probeInputs{}
	shapes, err := loadgenShapes("equal")
	if err != nil {
		panic(err) // the roster is fixed and valid
	}
	for _, s := range shapes {
		budgets := pickBudgets(rng, hotSweepBudgets, s.tilingMin, 2*s.exist)
		for i, b := range budgets {
			op := s.scheduleOp(nil, b, i%2 == 1)
			if i%2 == 0 {
				p.hit = append(p.hit, op.body)
			} else {
				p.miss = append(p.miss, op.body)
			}
		}
		if s.tilingMin > s.exist {
			// Below the MVM tiling minimum the answer is a fallback
			// schedule, which exercises the fallback span.
			p.miss = append(p.miss, s.scheduleOp(nil, s.exist, true).body)
		}
		p.sweep = append(p.sweep, s.sweepOp(nil, budgets).body)
		pi := probeInst{inst: s.inst, budgets: budgets}
		if s.family != solve.FamilyMVM {
			for t := 0; t < 2; t++ {
				ds := s.patchTarget(rng)
				p.patch = append(p.patch, s.patchOp(nil, ds, budgets).body)
				pi.targets = append(pi.targets, s.canonical(ds))
			}
		}
		p.insts = append(p.insts, pi)
	}
	for k := 0; k < 3; k++ {
		op, g := cdagOp(seed+17, k, cdagTimeoutMS)
		p.cdagBodies = append(p.cdagBodies, op.body)
		p.graphs = append(p.graphs, probeGraph{g: g, budget: op.budget})
	}
	return p
}

// mustBuild returns the library graph of a valid instance.
func mustBuild(in solve.Instance) *cdag.Graph {
	_, g, err := in.Build()
	if err != nil {
		panic(err) // callers pass instances that built before
	}
	return g
}
