package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wrbpg/internal/serve"
)

// server is an in-process wrbpgd handler served on a loopback port.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// bootServer starts the handler on 127.0.0.1 with default options.
// The solver slots are set to their default for the host's CPU count,
// which a run with fewer Ps would otherwise shrink.
func bootServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	opts := serve.Options{TraceBuffer: traceFetch, MaxInflight: 2 * runtime.NumCPU()}
	s := &server{srv: serve.New(opts), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.url = "http://" + ln.Addr().String()
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its serving goroutine.
func (s *server) close() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here leaves nothing to do but wait
	<-s.done
}

// client is one closed-loop caller.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply into c.buf.
func (c *client) do(method, path string, body []byte, traced bool) (status int, traceID string, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(serve.TraceHeader, "on")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get(serve.TraceIDHeader), nil
}

// httpOp is one request of a round with everything needed to check
// its answer.
type httpOp struct {
	path    string
	body    []byte
	exp     *expect
	budget  int64   // /v1/schedule
	budgets []int64 // sweep and patch
	moves   bool
}

// traceFetch is how many traces the server keeps, and how many of the
// last traced requests have their span trees fetched after the window.
const traceFetch = 256

// answer is a reply received inside a round and checked after it.
type answer struct {
	op      *httpOp
	body    []byte
	traceID string
	lat     time.Duration
	sample  int // index of its sample in the record
}

// send sends op and records its latency, keeping the reply for
// settle. A transport error or a status other than 200 fails the run.
func (c *client) send(op *httpOp, rec *clientRec) error {
	start := time.Now()
	status, traceID, err := c.do(http.MethodPost, op.path, op.body, rec.traced)
	if err != nil {
		return fmt.Errorf("%s: %w", op.path, err)
	}
	end := time.Now()
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", op.path, status, strings.TrimSpace(c.buf.String()))
	}
	rec.add(start, end)
	rec.pending = append(rec.pending, answer{op: op, body: append([]byte(nil), c.buf.Bytes()...),
		traceID: traceID, lat: end.Sub(start), sample: len(rec.samples) - 1})
	return nil
}

// exec sends op and checks its answer at once (warm-up requests).
func (c *client) exec(op *httpOp, rec *clientRec) error {
	if err := c.send(op, rec); err != nil {
		return err
	}
	return rec.settle()
}

// settle checks every pending answer and records what it shows. It
// returns an error for a failed check other than the known MVM sweep
// fault, which marks the operation failed instead.
func (rec *clientRec) settle() error {
	for _, a := range rec.pending {
		if err := rec.check(a); err != nil {
			return err
		}
	}
	rec.pending = rec.pending[:0]
	return nil
}

func (rec *clientRec) check(ans answer) error {
	op := ans.op
	var elapsedUS int64
	var cost *costBlock
	if op.path == "/v1/schedule" {
		var a schedAnswer
		if err := json.Unmarshal(ans.body, &a); err != nil {
			return fmt.Errorf("decode schedule answer: %w", err)
		}
		if err := op.exp.checkSchedule(&a, op.budget, op.moves); err != nil {
			return fmt.Errorf("schedule %s: %w", op.body, err)
		}
		rec.ratio.add(a.CostBits, op.exp.lb)
		elapsedUS, cost = a.ElapsedUS, a.Cost
		if rec.traced {
			rec.obs.noteSchedule(&a, op.exp.lb)
		}
	} else {
		var a sweepAnswer
		if err := json.Unmarshal(ans.body, &a); err != nil {
			return fmt.Errorf("decode %s answer: %w", op.path, err)
		}
		err := op.exp.checkSweep(&a, op.budgets)
		switch {
		case errors.Is(err, errKnownFault):
			rec.fail(ans.sample)
		case err != nil:
			return fmt.Errorf("%s %s: %w", op.path, op.body, err)
		}
		for _, it := range a.Items {
			if it.Feasible {
				rec.ratio.add(it.CostBits, op.exp.lb)
			}
		}
		elapsedUS, cost = a.ElapsedUS, a.Cost
		if rec.traced {
			rec.obs.noteSession(a.Session)
		}
	}
	if rec.traced {
		rec.obs.noteWire(len(ans.body), float64(ans.lat.Nanoseconds())/1e3-float64(elapsedUS), cost)
		if ans.traceID == "" {
			return fmt.Errorf("%s: traced request answered without %s", op.path, serve.TraceIDHeader)
		}
		rec.traceIDs = append(rec.traceIDs, ans.traceID)
	}
	return nil
}

// fetchSpans reads the span trees of traced requests and records their
// self times.
func (c *client) fetchSpans(ids []string, obs *observed) error {
	for _, id := range ids {
		if err := c.fetchTrace(id, obs); err != nil {
			return err
		}
	}
	return nil
}

// fetchTrace reads one trace's span tree and records its self times.
func (c *client) fetchTrace(id string, obs *observed) error {
	status, _, err := c.do(http.MethodGet, "/v1/trace/"+id, nil, false)
	if err != nil {
		return fmt.Errorf("trace %s: %w", id, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("trace %s: status %d", id, status)
	}
	var t struct {
		Spans []*spanNode `json:"spans"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &t); err != nil {
		return fmt.Errorf("decode trace: %w", err)
	}
	for _, s := range t.Spans {
		obs.noteSpan(s)
	}
	return nil
}

// metricsCounters reads counter values from the server's /metrics.
func (c *client) metricsCounters(names ...string) (map[string]float64, error) {
	status, _, err := c.do(http.MethodGet, "/metrics", nil, false)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(c.buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		for _, n := range names {
			if f[0] == n {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return nil, fmt.Errorf("/metrics %s: %w", n, err)
				}
				out[n] = v
			}
		}
	}
	return out, nil
}

// mustJSON encodes a request body the benchmark built itself.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are encoded
	}
	return b
}
