package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"testing"

	"wrbpg/internal/anytime"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/solve"
	"wrbpg/internal/wcfg"
)

func toMoves(s core.Schedule) []move {
	out := make([]move, len(s))
	for i, m := range s {
		out[i] = move{Kind: m.Kind.String(), Node: int32(m.Node)}
	}
	return out
}

// TestReplayAgreesWithSimulate replays valid and corrupted schedules
// with both the benchmark's rule checker and core.Simulate: they must
// accept the same schedules, with the same cost and peak.
func TestReplayAgreesWithSimulate(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	type tc struct {
		g      *cdag.Graph
		budget int64
		sched  core.Schedule
	}
	var cases []tc
	for _, in := range []solve.Instance{
		{Family: "dwt", N: 16, D: 2, Cfg: wcfg.Equal(16)},
		{Family: "ktree", K: 3, Height: 3, Cfg: wcfg.DoubleAccumulator(16)},
		{Family: "mvm", M: 6, N: 8, Cfg: wcfg.Equal(16)},
	} {
		s, err := solve.NewSession(in)
		if err != nil {
			t.Fatal(err)
		}
		b := 2 * s.MinExistence()
		sch, err := s.ScheduleCtx(ctx, noLimits, b)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{s.Graph(), b, sch})
	}
	for i := 0; i < 3; i++ {
		g := cdag.Random(int64(i), 20)
		b := copyGraph(g).existenceBound()
		res, err := anytime.Search(ctx, g, b, noLimits, anytime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{g, b, res.Schedule})
	}
	for ci, c := range cases {
		variants := []core.Schedule{c.sched}
		for k := 0; k < 40; k++ {
			v := append(core.Schedule(nil), c.sched...)
			j := rng.Intn(len(v))
			switch k % 4 {
			case 0: // drop a move
				v = append(v[:j], v[j+1:]...)
			case 1: // change its kind
				v[j].Kind = core.MoveKind(1 + rng.Intn(4))
			case 2: // move it to another node
				v[j].Node = cdag.NodeID(rng.Intn(c.g.Len()))
			case 3: // swap two moves
				l := rng.Intn(len(v))
				v[j], v[l] = v[l], v[j]
			}
			variants = append(variants, v)
		}
		g := copyGraph(c.g)
		for vi, v := range variants {
			for _, b := range []int64{c.budget, c.budget - 16} {
				st, serr := core.Simulate(c.g, b, v)
				r, rerr := replay(g, b, toMoves(v))
				if (serr == nil) != (rerr == nil) {
					t.Fatalf("case %d variant %d budget %d: Simulate err %v, replay err %v", ci, vi, b, serr, rerr)
				}
				if serr == nil && (st.Cost != r.cost || st.PeakRedWeight != r.peak) {
					t.Fatalf("case %d variant %d: Simulate cost %d peak %d, replay cost %d peak %d",
						ci, vi, st.Cost, st.PeakRedWeight, r.cost, r.peak)
				}
			}
		}
	}
}

// solvedAnswer returns a schedule answer at budget b as the server
// would send it, with its expectation: the DP answer, or the baseline
// one when degraded.
func solvedAnswer(t *testing.T, s *shape, b int64, degraded bool) (*schedAnswer, *expect) {
	t.Helper()
	exp, err := s.expectFor(nil, []int64{b, b + 16})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := s.inst.Build()
	if err != nil {
		t.Fatal(err)
	}
	var out solve.Outcome
	if degraded {
		out, err = solve.Degraded(context.Background(), p, b)
	} else {
		out, err = solve.Run(context.Background(), p, b, noLimits)
	}
	if err != nil {
		t.Fatal(err)
	}
	a := &schedAnswer{
		Source: out.Source.String(), BudgetBits: b, CostBits: out.Stats.Cost, PeakBits: out.Stats.PeakRedWeight,
		LowerBoundBits: exp.lb, MoveCount: len(out.Schedule), Schedule: toMoves(out.Schedule),
		MoveKinds: map[string]int{"M1": out.Stats.Moves[core.M1], "M2": out.Stats.Moves[core.M2],
			"M3": out.Stats.Moves[core.M3], "M4": out.Stats.Moves[core.M4]},
	}
	if out.Err != nil {
		a.FallbackCause = solve.FallbackReason(out.Err)
	}
	return a, exp
}

// smallDWT is DWT(16,2) with a budget one word above its existence
// bound.
func smallDWT(t *testing.T) (*shape, int64) {
	t.Helper()
	s, err := newShape("dwt", 16, 2, 0, 0, 0, "equal")
	if err != nil {
		t.Fatal(err)
	}
	return s, s.exist + 16
}

func TestCheckerRejectsCorruptedAnswers(t *testing.T) {
	s, b := smallDWT(t)
	a, exp := solvedAnswer(t, s, b, false)
	if err := exp.checkSchedule(a, b, true); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	corrupt := map[string]func(a *schedAnswer){
		"dropped move":      func(a *schedAnswer) { a.Schedule = a.Schedule[1:]; a.MoveCount-- },
		"cost off by one":   func(a *schedAnswer) { a.CostBits++ },
		"wrong lower bound": func(a *schedAnswer) { a.LowerBoundBits-- },
		"peak over budget":  func(a *schedAnswer) { a.PeakBits = b + 1 },
		"unknown source":    func(a *schedAnswer) { a.Source = "guess" },
	}
	for name, f := range corrupt {
		c := *a
		c.Schedule = append([]move(nil), a.Schedule...)
		f(&c)
		if err := exp.checkSchedule(&c, b, true); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Sweeps: a flipped feasible flag and a wrong cost are caught.
	budgets := []int64{exp.exist - 1, b, b + 16}
	exp.ref[exp.exist-1] = infCost
	sw := &sweepAnswer{LowerBoundBits: exp.lb, MinExistenceBits: exp.exist, Items: []sweepItem{
		{BudgetBits: budgets[0]},
		{BudgetBits: b, CostBits: exp.ref[b], Feasible: true},
		{BudgetBits: b + 16, CostBits: exp.ref[b+16], Feasible: true},
	}}
	if err := exp.checkSweep(sw, budgets); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	for i := range sw.Items {
		c := *sw
		c.Items = append([]sweepItem(nil), sw.Items...)
		c.Items[i].Feasible = !c.Items[i].Feasible
		if err := exp.checkSweep(&c, budgets); err == nil {
			t.Errorf("flipped feasible at item %d: accepted", i)
		}
	}
	c := *sw
	c.Items = append([]sweepItem(nil), sw.Items...)
	c.Items[1].CostBits++
	if err := exp.checkSweep(&c, budgets); err == nil {
		t.Errorf("sweep cost off by one: accepted")
	}
}

// TestCheckerRejectsDegradedDPAnswer: a valid baseline schedule is
// still a wrong answer where the DP solves the budget, since no DP
// request runs out of time.
func TestCheckerRejectsDegradedDPAnswer(t *testing.T) {
	s, b := smallDWT(t)
	a, exp := solvedAnswer(t, s, b, true)
	if a.Source != "fallback" {
		t.Fatalf("source %q, want fallback", a.Source)
	}
	if err := exp.checkSchedule(a, b, true); err == nil {
		t.Fatalf("degraded DWT answer at feasible budget %d accepted", b)
	}
}

// TestCheckerAcceptsFallback: below the MVM tiling minimum the baseline
// answers, and a valid fallback schedule there is accepted.
func TestCheckerAcceptsFallback(t *testing.T) {
	s, err := newShape("mvm", 8, 0, 6, 0, 0, "equal")
	if err != nil {
		t.Fatal(err)
	}
	if s.exist >= s.tilingMin {
		t.Fatalf("MVM(6,8): bound %d not below tiling minimum %d", s.exist, s.tilingMin)
	}
	a, exp := solvedAnswer(t, s, s.exist, false)
	if a.Source != "fallback" {
		t.Fatalf("source %q, want fallback", a.Source)
	}
	if err := exp.checkSchedule(a, s.exist, true); err != nil {
		t.Fatalf("valid fallback answer rejected: %v", err)
	}
}

// TestMVMSweepFaultIsNamed checks that the documented MVM feasibility
// fault is reported as the known fault, not as another failure.
func TestMVMSweepFaultIsNamed(t *testing.T) {
	s, err := newShape("mvm", 8, 0, 6, 0, 0, "equal")
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int64{s.exist, s.tilingMin}
	exp, err := s.expectFor(nil, budgets)
	if err != nil {
		t.Fatal(err)
	}
	a := &sweepAnswer{LowerBoundBits: exp.lb, MinExistenceBits: exp.exist, Items: []sweepItem{
		{BudgetBits: s.exist},
		{BudgetBits: s.tilingMin, CostBits: exp.ref[s.tilingMin], Feasible: true},
	}}
	if err := exp.checkSweep(a, budgets); !errors.Is(err, errKnownFault) {
		t.Fatalf("got %v, want the known fault", err)
	}
}

// answerOf reduces a served answer to its deterministic content.
func answerOf(t *testing.T, path string, body []byte) any {
	t.Helper()
	if path == "/v1/schedule" {
		var a schedAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatal(err)
		}
		return []any{a.Source, a.CostBits, a.PeakBits, a.LowerBoundBits, a.Schedule}
	}
	var a sweepAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	return []any{a.LowerBoundBits, a.MinExistenceBits, a.Items}
}

// TestSeedGivesSameOpsAndAnswers sets a workload up twice with one
// seed: the operation sequences are identical, and so are the answers
// on the deterministic families.
func TestSeedGivesSameOpsAndAnswers(t *testing.T) {
	type roundOpser interface {
		workload
		roundOps(r int) []*httpOp
		client() *client
	}
	for _, mk := range []func() roundOpser{
		func() roundOpser { return newServeHot() },
		func() roundOpser { return newServeChurn() },
	} {
		var seqs [2][][]byte
		var answers [2][]any
		for i := 0; i < 2; i++ {
			w := mk()
			if err := w.setup(7); err != nil {
				t.Fatal(err)
			}
			for _, op := range w.roundOps(3) {
				seqs[i] = append(seqs[i], op.body)
				status, _, err := w.client().do(http.MethodPost, op.path, op.body, false)
				if err != nil || status != http.StatusOK {
					t.Fatalf("%s: status %d, err %v", op.path, status, err)
				}
				answers[i] = append(answers[i], answerOf(t, op.path, w.client().buf.Bytes()))
			}
			w.close()
		}
		if !reflect.DeepEqual(seqs[0], seqs[1]) {
			t.Fatalf("same seed, different operation sequences")
		}
		if !reflect.DeepEqual(answers[0], answers[1]) {
			t.Fatalf("same seed, different answers")
		}
	}
	// The general-DAG stream is seeded too.
	a, b := newCDAGAnytime(), newCDAGAnytime()
	a.seed, b.seed = 7, 7
	for i, op := range a.roundOps(5) {
		if string(op.body) != string(b.roundOps(5)[i].body) {
			t.Fatalf("same seed, different graphs")
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, pl := range perLayer {
		if spec.PerLayer[i].Name != pl[0] || spec.PerLayer[i].Unit != pl[1] {
			t.Errorf("per_layer[%d] = %v, benchmark prints %v", i, spec.PerLayer[i], pl)
		}
	}
	want := map[string]string{"setup_s": "s", "latency_p50_ms": "ms",
		"latency_tail_ms": "ms", "cost_over_lb": "ratio", "peak_rss_mb": "MB"}
	if len(spec.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, want %d", len(spec.EndToEnd), len(want))
	}
	for _, m := range spec.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s in %s", m.Name, m.Unit)
		}
	}
	for _, wl := range spec.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", wl.Name)
		}
	}
}
