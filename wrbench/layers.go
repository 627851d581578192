package main

// Per-layer measurement. Two sources feed it: what the traced window
// observes in the answers and span trees the server already emits
// (observed), and probes that time calls into each package's public
// functions on the workload's own inputs (probeInputs.run). A layer a
// workload does not exercise is probed on the shared reference inputs
// of defaultProbe, so every workload reports every metric; README.md
// lists which workload each metric is meant to move.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"time"

	"wrbpg/internal/anytime"
	"wrbpg/internal/baseline"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/memdesign"
	"wrbpg/internal/memstate"
	"wrbpg/internal/schedcache"
	"wrbpg/internal/serve"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
)

// spanNames are the spans the server records on a traced request.
var spanNames = []string{
	"request", "canonicalize", "cache", "admission", "build", "solve",
	"solve.optimal", "solve.simulate", "solve.fallback", "session.acquire",
	"sweep.solve", "patch.solve", "anytime.search",
}

// perLayer lists every per-layer metric with its unit, in the order
// of BENCHMARK.json; the traced run reports all of them.
var perLayer = [][2]string{
	{"serve.schedule_hit_us", "us"}, {"serve.sweep_warm_us", "us"},
	{"serve.schedule_miss_us", "us"}, {"serve.patch_us", "us"},
	{"serve.allocs_per_req", "count"}, {"serve.alloc_bytes_per_req", "B"},
	{"serve.queue_wait_us", "us"}, {"serve.solve_wall_us", "us"},
	{"serve.session_hit_ratio", "ratio"}, {"serve.fallback_answers", "count"},
	{"wire.decode_us", "us"}, {"wire.encode_us", "us"},
	{"wire.response_bytes", "B"}, {"wire.transport_us", "us"},
	{"solve.key_us", "us"}, {"solve.session_build_ms", "ms"},
	{"solve.warm_query_ns", "ns"}, {"solve.schedule_ms", "ms"},
	{"solve.patch_us", "us"}, {"solve.cells_invalidated", "count"},
	{"solve.cells_reused", "count"}, {"solve.memo_hits", "count"},
	{"solve.memo_misses", "count"}, {"solve.deadline_fallbacks", "count"},
	{"dwt.grid_ms", "ms"}, {"ktree.grid_ms", "ms"}, {"mvm.grid_ms", "ms"},
	{"memstate.grid_ms", "ms"}, {"memdesign.min_memory_ms", "ms"},
	{"core.simulate_ns_per_move", "ns"},
	{"schedcache.get_ns", "ns"}, {"schedcache.hit_ratio", "ratio"},
	{"anytime.expanded_per_s", "states/s"}, {"anytime.pruning_ratio", "ratio"},
	{"anytime.complete_answers", "count"}, {"anytime.seed_over_lb", "ratio"},
	{"cdag.canonical_us", "us"}, {"baseline.layer_by_layer_us", "us"},
	{"runtime.alloc_bytes_per_op", "B"}, {"runtime.gc_cycles_per_kop", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"client.ops_per_s", "op/s"}, {"client.cpu_us_per_op", "us"},
}

func init() {
	for _, n := range spanNames {
		perLayer = append(perLayer, [2]string{"span." + n + "_us", "us"})
	}
}

func unitOf(name string) string {
	for _, pl := range perLayer {
		if pl[0] == name {
			return pl[1]
		}
	}
	return ""
}

// checkPerLayer asserts that m holds exactly the per-layer metrics.
func checkPerLayer(m metrics) error {
	for _, pl := range perLayer {
		if got, ok := m[pl[0]]; !ok || got.Unit != pl[1] {
			return fmt.Errorf("per-layer metric %s missing or not in %s", pl[0], pl[1])
		}
	}
	if len(m) != len(perLayer) {
		return fmt.Errorf("%d per-layer metrics, want %d", len(m), len(perLayer))
	}
	return nil
}

// observed gathers what one traced window saw.
type observed struct {
	respBytes, transportUS, queueUS, wallUS []float64
	sessHit, sessAll                        int
	fallbacks, deadlineFallbacks            int
	anyExpanded, anyPruned, anyWallUS       int64
	anyComplete, anyAnswers                 int
	seed                                    logRatio
	spans                                   map[string][]float64
	cacheHits, cacheLookups                 float64
}

func newObserved() *observed { return &observed{spans: map[string][]float64{}} }

func (o *observed) noteWire(size int, transportUS float64, c *costBlock) {
	o.respBytes = append(o.respBytes, float64(size))
	o.transportUS = append(o.transportUS, transportUS)
	if c != nil && (c.SourceTier == wire.TierSolve || c.SourceTier == wire.TierSession) {
		o.queueUS = append(o.queueUS, float64(c.QueueWaitUS))
		o.wallUS = append(o.wallUS, float64(c.SolveWallUS))
	}
}

func (o *observed) noteSchedule(a *schedAnswer, lb int64) {
	if a.Source == "fallback" {
		o.fallbacks++
		if a.FallbackCause == "deadline" {
			o.deadlineFallbacks++
		}
	}
	if a.Anytime != nil {
		o.anyAnswers++
		o.anyExpanded += a.Anytime.Expanded
		o.anyPruned += a.Anytime.Pruned
		if a.Cost != nil {
			o.anyWallUS += a.Cost.SolveWallUS
		}
		if a.Anytime.Complete {
			o.anyComplete++
		}
		o.seed.add(a.Anytime.SeedCostBits, lb)
	}
}

func (o *observed) noteSession(s string) {
	o.sessAll++
	if s == "hit" {
		o.sessHit++
	}
}

// spanNode is one node of a GET /v1/trace/{id} span tree.
type spanNode struct {
	Name       string      `json:"name"`
	DurationUS int64       `json:"duration_us"`
	Children   []*spanNode `json:"children"`
}

// noteSpan records the self time of s and its descendants: a span's
// duration minus what its children cover.
func (o *observed) noteSpan(s *spanNode) {
	self := s.DurationUS
	for _, c := range s.Children {
		self -= c.DurationUS
		o.noteSpan(c)
	}
	if self < 0 {
		self = 0
	}
	o.spans[s.Name] = append(o.spans[s.Name], float64(self))
}

// runtimeCounts reads the bytes allocated and the GC cycles run so
// far.
func runtimeCounts() (allocBytes, gcCycles uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// report writes the metrics the observations hold data for, leaving
// metrics already in m alone; a second report from the probe requests
// fills what the traced window did not exercise.
func (o *observed) report(m metrics) {
	set := func(ok bool, name, unit string, v float64) {
		if _, done := m[name]; ok && !done {
			m.set(name, unit, v)
		}
	}
	http := len(o.respBytes) > 0
	set(http, "wire.response_bytes", "B", mean(o.respBytes))
	set(http, "wire.transport_us", "us", median(o.transportUS))
	set(http, "serve.fallback_answers", "count", float64(o.fallbacks))
	set(http, "solve.deadline_fallbacks", "count", float64(o.deadlineFallbacks))
	set(len(o.queueUS) > 0, "serve.queue_wait_us", "us", mean(o.queueUS))
	set(len(o.wallUS) > 0, "serve.solve_wall_us", "us", median(o.wallUS))
	set(o.sessAll > 0, "serve.session_hit_ratio", "ratio", ratio(float64(o.sessHit), float64(o.sessAll)))
	any := o.anyAnswers > 0
	set(any, "anytime.expanded_per_s", "states/s", ratio(float64(o.anyExpanded), float64(o.anyWallUS)/1e6))
	set(any, "anytime.pruning_ratio", "ratio", ratio(float64(o.anyPruned), float64(o.anyExpanded+o.anyPruned)))
	set(any, "anytime.complete_answers", "count", float64(o.anyComplete))
	set(any, "anytime.seed_over_lb", "ratio", o.seed.value())
	set(o.cacheLookups > 0, "schedcache.hit_ratio", "ratio", ratio(o.cacheHits, o.cacheLookups))
	for _, n := range spanNames {
		set(len(o.spans[n]) > 0, "span."+n+"_us", "us", mean(o.spans[n]))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeInputs are the inputs the per-layer probes time, taken from the
// workload. Empty groups are filled from defaultProbe.
type probeInputs struct {
	hit, sweep, miss, patch [][]byte // request bodies by handler path
	cdagBodies              [][]byte // general-DAG /v1/schedule bodies
	insts                   []probeInst
	graphs                  []probeGraph
	// defaults holds the reference instances, whose patch targets are
	// used when the workload's own instances have none.
	defaults []probeInst
}

// patchInsts returns the instances whose patches are timed.
func (p *probeInputs) patchInsts() []probeInst {
	var out []probeInst
	for _, src := range [][]probeInst{p.insts, p.defaults} {
		for _, pi := range src {
			if len(pi.targets) > 0 {
				out = append(out, pi)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

// probeInst is one parametric instance with its budgets and, for the
// incremental families, patch targets.
type probeInst struct {
	inst    solve.Instance
	budgets []int64
	targets [][]cdag.WeightDelta
}

// probeGraph is one graph for the canonicalization and baseline probes.
type probeGraph struct {
	g      *cdag.Graph
	budget int64
}

func (p *probeInputs) fill(d *probeInputs) {
	pick := func(a, b [][]byte) [][]byte {
		if len(a) == 0 {
			return b
		}
		return a
	}
	p.hit, p.sweep, p.miss, p.patch = pick(p.hit, d.hit), pick(p.sweep, d.sweep), pick(p.miss, d.miss), pick(p.patch, d.patch)
	p.cdagBodies = pick(p.cdagBodies, d.cdagBodies)
	for _, fam := range []string{solve.FamilyDWT, solve.FamilyKTree, solve.FamilyMVM} {
		if !p.hasFamily(fam) {
			for _, in := range d.insts {
				if in.inst.Family == fam {
					p.insts = append(p.insts, in)
				}
			}
		}
	}
	if len(p.graphs) == 0 {
		p.graphs = d.graphs
	}
	p.defaults = d.insts
}

func (p *probeInputs) hasFamily(fam string) bool {
	for _, in := range p.insts {
		if in.inst.Family == fam {
			return true
		}
	}
	return false
}

// probeReps is how many times each timed call is repeated; the
// reported value is the median.
const probeReps = 5

// timeUS times f and returns microseconds.
func timeUS(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return float64(time.Since(t0).Nanoseconds()) / 1e3, err
}

// run times every layer on the inputs and writes the metrics; metrics
// the traced window already set are kept.
func (p *probeInputs) run(m metrics) error {
	if err := p.runHandler(m); err != nil {
		return err
	}
	if err := p.runWire(m); err != nil {
		return err
	}
	return p.runLibrary(m)
}

// serveBody runs one request through the handler in process.
func serveBody(h http.Handler, path string, body []byte, traced bool) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
	if traced {
		req.Header.Set(serve.TraceHeader, "on")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return w, fmt.Errorf("%s: status %d: %s", path, w.Code, w.Body.String())
	}
	return w, nil
}

func (p *probeInputs) runHandler(m metrics) error {
	srv := serve.New(serve.Options{TraceBuffer: 4096})
	h := srv.Handler()
	timeGroup := func(path string, bodies [][]byte, reps int) ([]float64, error) {
		var out []float64
		for r := 0; r < reps; r++ {
			for _, b := range bodies {
				us, err := timeUS(func() error { _, err := serveBody(h, path, b, false); return err })
				if err != nil {
					return nil, err
				}
				out = append(out, us)
			}
		}
		return out, nil
	}
	// Distinct keys first, so each is a miss.
	miss, err := timeGroup("/v1/schedule", p.miss, 1)
	if err != nil {
		return err
	}
	before := srv.CacheStats()
	if _, err := timeGroup("/v1/schedule", p.hit, 1); err != nil {
		return err
	}
	if _, err := timeGroup("/v1/schedule/sweep", p.sweep, 1); err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	hit, err := timeGroup("/v1/schedule", p.hit, probeReps)
	if err != nil {
		return err
	}
	sweep, err := timeGroup("/v1/schedule/sweep", p.sweep, probeReps)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	after := srv.CacheStats()
	calls := float64(len(hit) + len(sweep))
	patch, err := timeGroup("/v1/schedule/patch", p.patch, probeReps)
	if err != nil {
		return err
	}
	m.set("serve.schedule_hit_us", "us", median(hit))
	m.set("serve.sweep_warm_us", "us", median(sweep))
	m.set("serve.schedule_miss_us", "us", median(miss))
	m.set("serve.patch_us", "us", median(patch))
	m.set("serve.allocs_per_req", "count", float64(ms1.Mallocs-ms0.Mallocs)/calls)
	m.set("serve.alloc_bytes_per_req", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/calls)
	// What the traced window did not exercise is read from traced probe
	// requests on a fresh server, where every request does real work.
	tsrv := serve.New(serve.Options{TraceBuffer: 4096})
	th := tsrv.Handler()
	pobs := newObserved()
	groups := []struct {
		path   string
		bodies [][]byte
	}{{"/v1/schedule", p.miss}, {"/v1/schedule", p.hit}, {"/v1/schedule/sweep", p.sweep},
		{"/v1/schedule/patch", p.patch}, {"/v1/schedule", p.cdagBodies}}
	for _, g := range groups {
		for _, b := range g.bodies {
			t0 := time.Now()
			w, err := serveBody(th, g.path, b, true)
			if err != nil {
				return err
			}
			lat := float64(time.Since(t0).Nanoseconds()) / 1e3
			if err := pobs.noteAnswer(g.path, w.Body.Bytes(), lat); err != nil {
				return err
			}
			id := w.Header().Get(serve.TraceIDHeader)
			req := httptest.NewRequest(http.MethodGet, "/v1/trace/"+id, nil)
			tw := httptest.NewRecorder()
			th.ServeHTTP(tw, req)
			var t struct {
				Spans []*spanNode `json:"spans"`
			}
			if err := json.Unmarshal(tw.Body.Bytes(), &t); err != nil {
				return fmt.Errorf("decode probe trace: %w", err)
			}
			for _, s := range t.Spans {
				pobs.noteSpan(s)
			}
		}
	}
	hits := float64(after.Hits - before.Hits)
	pobs.cacheHits, pobs.cacheLookups = hits, hits+float64(after.Misses-before.Misses)
	pobs.report(m)
	// Every general-DAG probe answer may have fallen back at its
	// deadline; then no search report was seen.
	for _, n := range []string{"anytime.expanded_per_s", "anytime.pruning_ratio", "anytime.complete_answers", "anytime.seed_over_lb"} {
		if _, ok := m[n]; !ok {
			m.set(n, unitOf(n), 0)
		}
	}
	return nil
}

// noteAnswer records a probe answer like the traced window records a
// served one; latUS is the handler call's duration.
func (o *observed) noteAnswer(path string, body []byte, latUS float64) error {
	if path == "/v1/schedule" {
		var a schedAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("decode probe answer: %w", err)
		}
		o.noteSchedule(&a, a.LowerBoundBits)
		o.noteWire(len(body), latUS-float64(a.ElapsedUS), a.Cost)
		return nil
	}
	var a sweepAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decode probe answer: %w", err)
	}
	o.noteSession(a.Session)
	o.noteWire(len(body), latUS-float64(a.ElapsedUS), a.Cost)
	return nil
}

// runWire times JSON decoding of the request bodies into the wire
// types plus Instance(), and JSON encoding of the answers.
func (p *probeInputs) runWire(m metrics) error {
	srv := serve.New(serve.Options{})
	h := srv.Handler()
	var dec, enc []float64
	for _, b := range append(append(append([][]byte{}, p.hit...), p.miss...), p.cdagBodies...) {
		for r := 0; r < probeReps; r++ {
			us, err := timeUS(func() error {
				var req wire.ScheduleRequest
				if err := json.Unmarshal(b, &req); err != nil {
					return err
				}
				_, err := req.Instance()
				return err
			})
			if err != nil {
				return fmt.Errorf("decode probe: %w", err)
			}
			dec = append(dec, us)
		}
		w, err := serveBody(h, "/v1/schedule", b, false)
		if err != nil {
			return err
		}
		var res wire.ScheduleResult
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
			return fmt.Errorf("decode answer: %w", err)
		}
		for r := 0; r < probeReps; r++ {
			us, _ := timeUS(func() error { _, err := json.Marshal(&res); return err })
			enc = append(enc, us)
		}
	}
	for _, b := range p.sweep {
		for r := 0; r < probeReps; r++ {
			us, err := timeUS(func() error {
				var req wire.SweepRequest
				if err := json.Unmarshal(b, &req); err != nil {
					return err
				}
				_, err := req.Instance()
				return err
			})
			if err != nil {
				return fmt.Errorf("decode probe: %w", err)
			}
			dec = append(dec, us)
		}
		w, err := serveBody(h, "/v1/schedule/sweep", b, false)
		if err != nil {
			return err
		}
		var res wire.SweepResponse
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
			return fmt.Errorf("decode answer: %w", err)
		}
		for r := 0; r < probeReps; r++ {
			us, _ := timeUS(func() error { _, err := json.Marshal(&res); return err })
			enc = append(enc, us)
		}
	}
	m.set("wire.decode_us", "us", median(dec))
	m.set("wire.encode_us", "us", median(enc))
	return nil
}

func (p *probeInputs) runLibrary(m metrics) error {
	ctx := context.Background()
	var lim guard.Limits
	var keyUS, buildMS, warmNS, schedMS, patchUS, inval, reused, simNS, minMemMS []float64
	grid := map[string][]float64{}
	var memstateMS []float64
	sink := &guard.CountsSink{}
	cache := schedcache.New[int](16, 64)
	var keys []string
	for _, pi := range p.insts {
		in := pi.inst
		for _, b := range pi.budgets {
			keys = append(keys, in.Key(b))
		}
		for r := 0; r < probeReps; r++ {
			us, _ := timeUS(func() error {
				for _, b := range pi.budgets {
					in.Key(b)
				}
				in.ShapeKey()
				return nil
			})
			keyUS = append(keyUS, us/float64(len(pi.budgets)+1))
		}
		// Cold session and grid, with the solver counters teed.
		var s *solve.Session
		us, err := timeUS(func() error {
			var err error
			s, err = solve.NewSession(in)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", in.Label(), err)
		}
		buildMS = append(buildMS, us/1e3)
		us, err = timeUS(func() error {
			_, err := s.SweepCosts(guard.WithSink(ctx, sink), lim, pi.budgets, nil)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s grid: %w", in.Label(), err)
		}
		grid[in.Family] = append(grid[in.Family], us/1e3)
		// Warm queries.
		n := 0
		us, _ = timeUS(func() error {
			for r := 0; r < 20; r++ {
				for _, b := range pi.budgets {
					if _, err := s.CostCtx(ctx, lim, b); err != nil {
						return err
					}
					n++
				}
			}
			return nil
		})
		warmNS = append(warmNS, us*1e3/float64(n))
		// A schedule at a feasible budget, then its simulation.
		b := pi.budgets[len(pi.budgets)-1]
		var sch core.Schedule
		us, err = timeUS(func() error {
			var err error
			sch, err = s.ScheduleCtx(ctx, lim, b)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s schedule: %w", in.Label(), err)
		}
		schedMS = append(schedMS, us/1e3)
		if len(sch) > 0 {
			us, err = timeUS(func() error { _, err := core.Simulate(s.Graph(), b, sch); return err })
			if err != nil {
				return fmt.Errorf("%s simulate: %w", in.Label(), err)
			}
			simNS = append(simNS, us*1e3/float64(len(sch)))
		}
		// Minimum-memory search on a fresh session.
		fresh, err := solve.NewSession(in)
		if err != nil {
			return err
		}
		us, err = timeUS(func() error {
			_, err := memdesign.SearchMonotoneSession(ctx, lim, fresh, fresh.LowerBound(), fresh.MinExistence(),
				fresh.Graph().TotalWeight(), int64(in.Cfg.WordBits))
			return err
		})
		if err != nil {
			return fmt.Errorf("%s min memory: %w", in.Label(), err)
		}
		minMemMS = append(minMemMS, us/1e3)
		if in.Family == solve.FamilyKTree {
			g := s.Graph()
			us, err := timeUS(func() error {
				ks, err := memstate.NewKScheduler(g)
				if err != nil {
					return err
				}
				root := g.Sinks()[0]
				for _, b := range pi.budgets {
					ks.PlainCost(root, b)
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("%s memstate: %w", in.Label(), err)
			}
			memstateMS = append(memstateMS, us/1e3)
		}
	}
	// Patches: to each target and back to base, each followed by a
	// sweep so the invalidated cells are recomputed.
	for _, pi := range p.patchInsts() {
		s, err := solve.NewSession(pi.inst)
		if err != nil {
			return err
		}
		for _, t := range pi.targets {
			for _, to := range [][]cdag.WeightDelta{t, nil} {
				var st solve.PatchStats
				us, err := timeUS(func() error {
					var err error
					st, err = s.PatchTo(to)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s patch: %w", pi.inst.Label(), err)
				}
				patchUS = append(patchUS, us)
				inval = append(inval, float64(st.Invalidated))
				reused = append(reused, float64(st.Reused))
				if _, err := s.SweepCosts(ctx, lim, pi.budgets, nil); err != nil {
					return err
				}
			}
		}
	}
	for i, k := range keys {
		cache.Put(k, i)
	}
	var getNS []float64
	for r := 0; r < probeReps; r++ {
		us, _ := timeUS(func() error {
			for _, k := range keys {
				cache.Get(k)
			}
			return nil
		})
		getNS = append(getNS, us*1e3/float64(len(keys)))
	}
	var canonUS, lblUS []float64
	for _, pg := range p.graphs {
		for r := 0; r < probeReps; r++ {
			us, _ := timeUS(func() error { cdag.Canonical(pg.g); return nil })
			canonUS = append(canonUS, us)
			layers := anytime.DepthLayers(pg.g)
			us, err := timeUS(func() error { _, err := baseline.LayerByLayer(pg.g, layers, pg.budget); return err })
			if err != nil {
				return fmt.Errorf("layer-by-layer: %w", err)
			}
			lblUS = append(lblUS, us)
		}
	}
	c := sink.Snapshot()
	m.set("solve.key_us", "us", median(keyUS))
	m.set("solve.session_build_ms", "ms", median(buildMS))
	m.set("solve.warm_query_ns", "ns", median(warmNS))
	m.set("solve.schedule_ms", "ms", median(schedMS))
	m.set("solve.patch_us", "us", median(patchUS))
	m.set("solve.cells_invalidated", "count", mean(inval))
	m.set("solve.cells_reused", "count", mean(reused))
	m.set("solve.memo_hits", "count", float64(c.MemoHits))
	m.set("solve.memo_misses", "count", float64(c.MemoEntries))
	m.set("dwt.grid_ms", "ms", median(grid[solve.FamilyDWT]))
	m.set("ktree.grid_ms", "ms", median(grid[solve.FamilyKTree]))
	m.set("mvm.grid_ms", "ms", median(grid[solve.FamilyMVM]))
	m.set("memstate.grid_ms", "ms", median(memstateMS))
	m.set("memdesign.min_memory_ms", "ms", median(minMemMS))
	m.set("core.simulate_ns_per_move", "ns", median(simNS))
	m.set("schedcache.get_ns", "ns", median(getNS))
	m.set("cdag.canonical_us", "us", median(canonUS))
	m.set("baseline.layer_by_layer_us", "us", median(lblUS))
	return nil
}

// sortedBudgets returns a sorted copy.
func sortedBudgets(bs []int64) []int64 {
	out := append([]int64(nil), bs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
