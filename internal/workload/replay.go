package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"dvfsroofline/internal/serve"
)

// Mode selects how the replayer paces a trace.
type Mode string

const (
	// ModeSync issues requests sequentially, ignoring send offsets: the
	// fully deterministic mode. With an in-process target and a
	// StepClock, two replays of one trace against identically-seeded
	// servers produce byte-identical reports.
	ModeSync Mode = "sync"
	// ModeOpen paces requests open-loop at the trace's recorded offsets
	// (optionally rate-scaled), dispatching concurrently and never
	// waiting for earlier responses — arrivals don't slow down because
	// the server did. This is the load-testing mode; its latencies are
	// wall-clock and its report is not run-to-run byte-stable.
	ModeOpen Mode = "open"
)

// Target is where replayed requests go: a live daemon over HTTP or an
// in-process serve handler.
type Target interface {
	// Do posts one request body to the op's endpoint (query may carry a
	// routing selector) and returns the HTTP status, the serving device
	// (X-Energyd-Device; empty in single-device mode), and the response
	// body. err reports transport failure, not HTTP error statuses.
	Do(ctx context.Context, op Op, query string, body []byte) (status int, device string, resp []byte, err error)
	// Stats fetches the server's /v1/stats counter snapshot; targets
	// without one may return (nil, nil).
	Stats(ctx context.Context) (*serve.StatsResponse, error)
}

// AdminTarget extends Target with raw admin-plane access — the fleet
// membership endpoints take methods and paths the Op vocabulary doesn't
// model (POST /v1/fleet/devices, DELETE /v1/fleet/devices/{id}). Both
// built-in targets implement it; churn plans require it.
type AdminTarget interface {
	Target
	// Admin issues one arbitrary request and returns the HTTP status and
	// response body. err reports transport failure only.
	Admin(ctx context.Context, method, path string, body []byte) (status int, resp []byte, err error)
}

// HandlerTarget replays against an in-process http.Handler — no
// network, no goroutine handoff, fully deterministic in ModeSync.
type HandlerTarget struct{ Handler http.Handler }

func (t HandlerTarget) Do(ctx context.Context, op Op, query string, body []byte) (int, string, []byte, error) {
	return t.roundTrip(ctx, http.MethodPost, op.Path()+query, body)
}

func (t HandlerTarget) Stats(ctx context.Context) (*serve.StatsResponse, error) {
	return decodeStats(t.roundTrip(ctx, http.MethodGet, "/v1/stats", nil))
}

func (t HandlerTarget) Admin(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	status, _, resp, err := t.roundTrip(ctx, method, path, body)
	return status, resp, err
}

// roundTrip serves one request into a memRecorder and returns the
// status, the X-Energyd-Device header and the body the handler wrote.
func (t HandlerTarget) roundTrip(ctx context.Context, method, path string, body []byte) (int, string, []byte, error) {
	req, err := newRequest(ctx, method, path, body)
	if err != nil {
		return 0, "", nil, err
	}
	if req.Body == nil {
		// net/http's server hands a bodiless request to its handler
		// with http.NoBody, never nil.
		req.Body = http.NoBody
	}
	rec := &memRecorder{h: make(http.Header)}
	t.Handler.ServeHTTP(rec, req)
	return rec.status(), rec.h.Get("X-Energyd-Device"), rec.body.Bytes(), nil
}

// memRecorder is a minimal in-memory http.ResponseWriter (the stdlib
// httptest recorder lives in a test-only package by convention).
type memRecorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *memRecorder) Header() http.Header { return r.h }
func (r *memRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}
func (r *memRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *memRecorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// HTTPTarget replays against a live energyd over HTTP.
type HTTPTarget struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// Client overrides the HTTP client; nil uses http.DefaultClient.
	Client *http.Client
}

func (t HTTPTarget) Do(ctx context.Context, op Op, query string, body []byte) (int, string, []byte, error) {
	return t.roundTrip(ctx, http.MethodPost, op.Path()+query, body)
}

func (t HTTPTarget) Stats(ctx context.Context) (*serve.StatsResponse, error) {
	return decodeStats(t.roundTrip(ctx, http.MethodGet, "/v1/stats", nil))
}

func (t HTTPTarget) Admin(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	status, _, resp, err := t.roundTrip(ctx, method, path, body)
	return status, resp, err
}

// roundTrip sends one request to Base+path and returns the status, the
// X-Energyd-Device header and the whole response body.
func (t HTTPTarget) roundTrip(ctx context.Context, method, path string, body []byte) (int, string, []byte, error) {
	req, err := newRequest(ctx, method, t.Base+path, body)
	if err != nil {
		return 0, "", nil, err
	}
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Energyd-Device"), b, nil
}

// newRequest builds one target request: a nil body is sent as none, and
// a body is sent as JSON.
func newRequest(ctx context.Context, method, target string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err == nil && body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

// decodeStats turns a /v1/stats round trip into the snapshot it carries.
func decodeStats(status int, _ string, body []byte, err error) (*serve.StatsResponse, error) {
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("workload: /v1/stats = %d: %s", status, body)
	}
	var stats serve.StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		return nil, fmt.Errorf("workload: decoding /v1/stats: %w", err)
	}
	return &stats, nil
}

// StepClock is a virtual time source that advances a fixed step on
// every Now call. Wired into both the replayer and the server's
// Options.Clock in sync mode, it makes "latency" a deterministic count
// of clock reads along the request path instead of wall time — the
// piece that lets two replays of one trace emit byte-identical reports.
type StepClock struct {
	mu   sync.Mutex
	t    time.Time // guarded by mu
	step time.Duration
}

// NewStepClock starts a virtual clock at the Unix epoch; step <= 0
// selects 1 ms per read.
func NewStepClock(step time.Duration) *StepClock {
	if step <= 0 {
		step = time.Millisecond
	}
	return &StepClock{t: time.Unix(0, 0).UTC(), step: step}
}

// Now advances the clock one step and returns the new time.
func (c *StepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// ReplayOptions tune a Replay run.
type ReplayOptions struct {
	// Mode selects sync (deterministic sequential) or open (paced
	// concurrent) replay; empty = sync.
	Mode Mode
	// Speed rescales the trace's send offsets in open mode: 2 replays a
	// 60 s trace in 30 s. Zero or negative = 1 (recorded rate).
	Speed float64
	// Route, when set, adds ?route=<value> to every fleet_predict
	// request (e.g. "least_loaded").
	Route string
	// Now is the latency clock. Sync replays pass a StepClock shared
	// with the server; open replays pass the wall clock.
	Now func() time.Time
	// Sleep paces open-mode dispatch; required in open mode.
	Sleep func(time.Duration)
	// BeforeEvent, when set, runs before event i is issued (sync mode)
	// or scheduled (open mode) — the hook point for mid-trace membership
	// churn and health ticks. A non-nil error aborts the replay.
	BeforeEvent func(i int) error
}

// outcome is one replayed request's result.
type outcome struct {
	op           Op
	status       int
	device       string
	latency      time.Duration
	degraded     bool
	transportErr bool
}

// Replay drives every event of the trace at the target and assembles
// the report, reconciling against the server's /v1/stats snapshot when
// the target provides one.
func Replay(ctx context.Context, tr *Trace, target Target, opts ReplayOptions) (*Report, error) {
	if opts.Mode == "" {
		opts.Mode = ModeSync
	}
	if opts.Now == nil {
		return nil, fmt.Errorf("workload: ReplayOptions.Now is required")
	}
	speed := opts.Speed
	if speed <= 0 {
		speed = 1
	}
	switch opts.Mode {
	case ModeSync:
	case ModeOpen:
		if opts.Sleep == nil {
			return nil, fmt.Errorf("workload: open mode needs ReplayOptions.Sleep")
		}
	default:
		return nil, fmt.Errorf("workload: unknown replay mode %q", opts.Mode)
	}
	open := opts.Mode == ModeOpen
	var start time.Time
	if open {
		start = opts.Now()
	}
	outs := make([]outcome, len(tr.Events))
	var wg sync.WaitGroup
	defer wg.Wait() // an early return leaves no open-mode request in flight
	for i := range tr.Events {
		if open {
			// Pace: wait until the event's scaled send offset.
			due := time.Duration(tr.Events[i].AtS / speed * float64(time.Second))
			for elapsed := opts.Now().Sub(start); elapsed < due; elapsed = opts.Now().Sub(start) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				opts.Sleep(due - elapsed)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.BeforeEvent != nil {
			if err := opts.BeforeEvent(i); err != nil {
				return nil, fmt.Errorf("workload: before event %d: %w", i, err)
			}
		}
		if !open {
			outs[i] = issue(ctx, target, &tr.Events[i], opts)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = issue(ctx, target, &tr.Events[i], opts)
		}()
	}
	wg.Wait()
	stats, err := target.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("workload: fetching final server stats: %w", err)
	}
	return buildReport(tr, opts.Mode, speed, outs, stats), nil
}

// issue sends one event and classifies the outcome. Each distinct slot
// of outs is written by exactly one goroutine, so open mode needs no
// lock around it.
func issue(ctx context.Context, target Target, ev *Event, opts ReplayOptions) outcome {
	query := ""
	if ev.Op == OpFleetPredict && opts.Route != "" {
		query = "?route=" + url.QueryEscape(opts.Route)
	}
	o := outcome{op: ev.Op}
	start := opts.Now()
	status, device, resp, err := target.Do(ctx, ev.Op, query, ev.Body)
	o.latency = opts.Now().Sub(start)
	if err != nil {
		o.transportErr = true
		return o
	}
	o.status = status
	o.device = device
	if ev.Op == OpAutotune && status == http.StatusOK {
		var flags struct {
			Degraded bool `json:"degraded"`
		}
		if json.Unmarshal(resp, &flags) == nil {
			o.degraded = flags.Degraded
		}
	}
	return o
}
