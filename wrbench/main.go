// Command wrbench is the output-checked benchmark of wrbpg. It drives
// one workload through the serve handler over loopback HTTP, checks
// every answer, and prints one JSON result line:
//
//	wrbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//	wrbench --compare base/ head/
//
// With --trace 0 the result carries the end-to-end metrics, with
// --trace 1 the per-layer metrics. See README.md for the workloads,
// the metrics and the known faults.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmarked traffic mix. A round is a fixed list of
// operations; the client runs whole rounds until the timed window
// ends, so any known failure is the same share of the attempted
// operations in every run. Every workload drives the serve handler
// over loopback HTTP with one closed-loop client.
type workload interface {
	// setup builds inputs and reference answers, runs the set-up
	// checks, and boots and warms the server.
	setup(seed int64) error
	// round runs round r, recording every operation.
	round(r int, rec *clientRec) error
	// cacheCounts reads the server's schedule cache counters.
	cacheCounts() (hits, lookups float64, err error)
	// fetchSpans reads the span trees of traced requests.
	fetchSpans(ids []string, o *observed) error
	// probe measures the per-layer metrics on the workload's inputs,
	// keeping those the traced window already set in m.
	probe(m metrics) error
	// procs is the GOMAXPROCS the run uses; 0 keeps the default.
	procs() int
	close()
}

var workloads = map[string]func() workload{
	"serve-hot":    func() workload { return newServeHot() },
	"serve-churn":  func() workload { return newServeChurn() },
	"cdag-anytime": func() workload { return newCDAGAnytime() },
}

// setupRepeats is how many times a run sets the workload up; setup_s
// is the median.
const setupRepeats = 5

// tailPct is the latency percentile reported as latency_tail_ms. It
// leaves at least ten samples beyond it in every slice of a 30 s run,
// and unlike p99 it stays steady between runs on this host (README.md).
const tailPct = 90

// traceSegment is the length of each untraced and traced segment of
// the traced run; the two kinds alternate.
const traceSegment = time.Second

// sample is one operation: when it completed, in seconds into the
// window, and its latency in milliseconds (+Inf when it failed).
type sample struct{ at, ms float64 }

// clientRec records the client's operations in a timed window.
type clientRec struct {
	t0       time.Time     // start of the window
	paused   time.Duration // spent checking answers since t0
	samples  []sample
	pending  []answer // sent in this round, checked after it
	failed   int
	ratio    logRatio
	traced   bool
	traceIDs []string // of traced requests, fetched after the window
	obs      *observed
}

func newRec(traced bool) *clientRec { return &clientRec{traced: traced, obs: newObserved()} }

// add records an operation that ran from start to end.
func (r *clientRec) add(start, end time.Time) {
	r.samples = append(r.samples, sample{at: (end.Sub(r.t0) - r.paused).Seconds(),
		ms: float64(end.Sub(start).Nanoseconds()) / 1e6})
}

// fail marks operation i failed.
func (r *clientRec) fail(i int) {
	r.failed++
	r.samples[i].ms = math.Inf(1)
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve-hot, serve-churn or cdag-anytime")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two directories of result files (see README.md)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare wants two directories")
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("usage: wrbench --workload <%s> --seed N --seconds S --trace 0|1", strings.Join(workloadNames(), "|"))
	}
	res, err := run(mk, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wrbench: "+format+"\n", args...)
	os.Exit(1)
}

// run sets the workload up several times, keeps the last setup, runs
// the timed window and, for the traced run, the per-layer probes.
func run(mk func() workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
			// Drop the previous setup's garbage so the peak resident set
			// does not depend on when the collector last ran.
			debug.FreeOSMemory()
		}
		w = mk()
		if p := w.procs(); i == 0 && p > 0 {
			runtime.GOMAXPROCS(p)
		}
		c0 := cpuTime()
		if err := w.setup(seed); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	defer w.close()
	debug.FreeOSMemory()
	if traced {
		return runTraced(w, dur)
	}

	rec := newRec(false)
	rss := startRSS()
	next := 0
	t, err := window(w, dur, &next, rec)
	peakMB := rss.stop()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: len(rec.samples), Failed: rec.failed, Metrics: metrics{}}
	st := windowStatsOf(rec.samples, t.wall.Seconds(), tailPct)
	fmt.Fprintf(os.Stderr, "wrbench: %d ops (%d failed) in %.2fs (%.0f op/s, %.1f us CPU per op); %d slices, p%d leaves %d samples beyond it in each; set-ups took %v CPU seconds\n",
		res.Attempted, res.Failed, t.wall.Seconds(), float64(res.Attempted)/t.wall.Seconds(), t.cpuPerOpUS(res.Attempted),
		st.slices, tailPct, st.beyond, setups)
	if st.beyond < 10 {
		fmt.Fprintf(os.Stderr, "wrbench: warning: fewer than ten samples beyond p%d; run longer\n", tailPct)
	}
	if peakMB == 0 {
		return nil, fmt.Errorf("cannot read the resident set from /proc/self/status")
	}
	res.Metrics.set("setup_s", "s", median(setups))
	res.Metrics.set("latency_p50_ms", "ms", st.p50)
	res.Metrics.set("latency_tail_ms", "ms", st.tail)
	res.Metrics.set("cost_over_lb", "ratio", rec.ratio.value())
	res.Metrics.set("peak_rss_mb", "MB", peakMB)
	return res, nil
}

// runTraced is the traced run: untraced and traced segments alternate
// for dur, so host drift falls on both alike, and their throughputs
// give the tracing overhead. The span trees of the last traced
// requests are fetched after the window, outside every timed segment;
// then the per-layer probes run on the workload's inputs.
func runTraced(w workload, dur time.Duration) (*result, error) {
	plain, traced := newRec(false), newRec(true)
	var plainT, tracedT spent
	hits0, lookups0, err := w.cacheCounts()
	if err != nil {
		return nil, err
	}
	next := 0
	for plainT.wall+tracedT.wall < dur {
		t, err := window(w, traceSegment, &next, plain)
		if err != nil {
			return nil, err
		}
		plainT.add(t)
		if t, err = window(w, traceSegment, &next, traced); err != nil {
			return nil, err
		}
		tracedT.add(t)
	}
	hits1, lookups1, err := w.cacheCounts()
	if err != nil {
		return nil, err
	}
	obs := traced.obs
	obs.cacheHits, obs.cacheLookups = hits1-hits0, lookups1-lookups0
	ids := traced.traceIDs
	if len(ids) > traceFetch {
		ids = ids[len(ids)-traceFetch:]
	}
	if err := w.fetchSpans(ids, obs); err != nil {
		return nil, err
	}
	m := metrics{}
	// Allocation and GC work are read over the untraced segments: the
	// program as it runs with tracing off.
	plainOps := float64(len(plain.samples)) / plainT.wall.Seconds()
	tracedOps := float64(len(traced.samples)) / tracedT.wall.Seconds()
	m.set("obs.trace_overhead_pct", "%", 100*(plainOps-tracedOps)/plainOps)
	m.set("client.ops_per_s", "op/s", plainOps)
	m.set("client.cpu_us_per_op", "us", plainT.cpuPerOpUS(len(plain.samples)))
	m.set("runtime.alloc_bytes_per_op", "B", float64(plainT.allocBytes)/float64(len(plain.samples)))
	m.set("runtime.gc_cycles_per_kop", "count", 1000*float64(plainT.gcCycles)/float64(len(plain.samples)))
	obs.report(m)
	if err := w.probe(m); err != nil {
		return nil, fmt.Errorf("per-layer probe: %w", err)
	}
	if err := checkPerLayer(m); err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: len(plain.samples) + len(traced.samples),
		Failed: plain.failed + traced.failed, Metrics: m}, nil
}

// spent is what a window's rounds took: wall time, the process's CPU
// time, bytes allocated and GC cycles.
type spent struct {
	wall, cpu            time.Duration
	allocBytes, gcCycles uint64
}

// window runs whole rounds, from round *next on, until their requests
// have taken dur. Each round's answers are checked after the round,
// and the checking is left out of the window's wall and CPU time.
// Round numbers carry on across the windows of one run, so no window
// repeats another's requests.
func window(w workload, dur time.Duration, next *int, rec *clientRec) (spent, error) {
	rec.t0, rec.paused = time.Now(), 0
	var t spent
	for t.wall < dur {
		t0, c0 := time.Now(), cpuTime()
		a0, g0 := runtimeCounts()
		if err := w.round(*next, rec); err != nil {
			return t, fmt.Errorf("round %d: %w", *next, err)
		}
		a1, g1 := runtimeCounts()
		t.wall += time.Since(t0)
		t.cpu += cpuTime() - c0
		t.allocBytes += a1 - a0
		t.gcCycles += g1 - g0
		p0 := time.Now()
		if err := rec.settle(); err != nil {
			return t, fmt.Errorf("round %d: %w", *next, err)
		}
		rec.paused += time.Since(p0)
		*next++
	}
	return t, nil
}

// cpuPerOpUS is the CPU time per operation in microseconds.
func (s spent) cpuPerOpUS(ops int) float64 { return float64(s.cpu.Nanoseconds()) / 1e3 / float64(ops) }

func (s *spent) add(t spent) {
	s.wall += t.wall
	s.cpu += t.cpu
	s.allocBytes += t.allocBytes
	s.gcCycles += t.gcCycles
}

// cpuTime is the user and system CPU time of the whole process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowStats are the end-to-end latencies of one window.
type windowStats struct {
	p50, tail      float64
	slices, beyond int // slices, and samples beyond the tail in each
}

// windowStatsOf cuts the window into one-second slices, fewer when a
// slice would hold under 200 samples or under ten beyond the tail
// percentile p, and reports the median over the slices of each slice's
// median latency and tail latency. Medians over slices keep a few
// seconds of host noise from moving the result.
func windowStatsOf(samples []sample, elapsed, p float64) windowStats {
	need := max(200, int(math.Ceil(10/(1-p/100))))
	k := max(1, min(int(elapsed), len(samples)/need))
	width := elapsed / float64(k)
	slices := make([][]float64, k)
	for _, s := range samples {
		j := min(int(s.at/width), k-1)
		slices[j] = append(slices[j], s.ms)
	}
	var p50, tail []float64
	for _, l := range slices {
		sort.Float64s(l)
		p50 = append(p50, quantile(l, 0.5))
		tail = append(tail, quantile(l, p/100))
	}
	return windowStats{p50: median(p50), tail: median(tail),
		slices: k, beyond: int(float64(len(samples)) * (1 - p/100) / float64(k))}
}

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// rssSampler tracks the process's resident set while a window runs.
// The set-up's peak (reference solves, the exact oracle) is left out:
// the window starts after the set-up's memory is returned.
type rssSampler struct {
	quit chan struct{}
	done chan float64
}

// rssSampleEvery is how often the resident set is read.
const rssSampleEvery = 10 * time.Millisecond

// startRSS samples VmRSS until stop. The result is the median over the
// window's one-second slices of each slice's peak: the largest single
// reading follows when the collector happened to run, and moved by a
// fifth between runs of one seed.
func startRSS() *rssSampler {
	r := &rssSampler{quit: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		start := time.Now()
		var peaks []float64
		note := func() {
			sec := int(time.Since(start) / time.Second)
			for len(peaks) <= sec {
				peaks = append(peaks, 0)
			}
			peaks[sec] = max(peaks[sec], readRSSMB())
		}
		note()
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-r.quit:
				note()
				r.done <- median(peaks)
				return
			case <-t.C:
				note()
			}
		}
	}()
	return r
}

// stop ends the sampling and returns the result in MB.
func (r *rssSampler) stop() float64 {
	close(r.quit)
	return <-r.done
}

// readRSSMB reads the process's resident set (VmRSS) in MB.
func readRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
