package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed interval of a traced run. Roots wrap one real
// request or pipeline pass; every other span is a probe: the benchmark
// calling one inner layer's public function again on that request's
// inputs. A probe whose Parent is zero is off the ladder — timed for its
// layer's metric but not part of the request's cost breakdown (a warm
// request's sweep, say, which the cache skipped). Start and End are
// offsets from the moment the tracer was created.
type Span struct {
	Req    int64         `json:"req"`
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Attrs  Attrs         `json:"attrs"`
}

// Attrs are a span's annotations. Root marks a span around a real
// request or pass. Own marks spans of the workload's own requests or
// passes, as opposed to the small stand-in inputs a traced run uses for
// layers its workload never reaches. Mix names the serving mix ("warm"
// or "cold") a request came from.
type Attrs struct {
	Op      string `json:"op,omitempty"`
	Device  string `json:"device,omitempty"`
	Grid    string `json:"grid,omitempty"`
	Mix     string `json:"mix,omitempty"`
	Samples int    `json:"samples,omitempty"`
	Root    bool   `json:"root,omitempty"`
	Own     bool   `json:"own,omitempty"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. It is used from one
// goroutine: traced passes run a single client so probes never contend
// with each other or with the request they explain.
type Tracer struct {
	epoch  time.Time
	spans  []Span
	nextID int64
	req    int64
	own    bool
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: now()} }

// Begin starts the next request or pass; own marks it as one of the
// workload's own rather than a stand-in.
func (t *Tracer) Begin(own bool) { t.req++; t.own = own }

// Time runs fn as a span named name under parent and returns its ID.
func (t *Tracer) Time(parent int64, name string, a Attrs, fn func()) int64 {
	start := now()
	fn()
	return t.Add(parent, name, a, start, now())
}

// Add records an already-timed span of the current request and returns
// its ID.
func (t *Tracer) Add(parent int64, name string, a Attrs, start, end time.Time) int64 {
	t.nextID++
	a.Own = t.own
	t.spans = append(t.spans, Span{
		Req: t.req, ID: t.nextID, Parent: parent, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Attrs: a,
	})
	return t.nextID
}

// Spans returns every recorded span in recording order.
func (t *Tracer) Spans() []Span { return t.spans }

// WriteJSONL writes one span per line to path, creating its directory.
func (t *Tracer) WriteJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("bench: writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bench: writing spans: %w", err)
	}
	return f.Close()
}

// SelfTime is a span's duration minus the length of the union of its
// children's intervals. Children that ran inside the span (concurrently
// or not) subtract only the time they covered; probes that re-ran a
// layer after the span subtract their whole duration, since sequential
// probes never overlap one another. A parallel layer can therefore
// have negative self time: its children's serial cost exceeds its wall
// time by what the parallelism saved.
func SelfTime(s Span, children []Span) time.Duration {
	return s.Dur() - unionLen(children)
}

// unionLen is the total length covered by the spans' intervals.
func unionLen(spans []Span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]Span(nil), spans...)
	sort.Slice(iv, func(a, b int) bool { return iv[a].Start < iv[b].Start })
	var total time.Duration
	lo, hi := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
			continue
		}
		hi = max(hi, s.End)
	}
	return total + hi - lo
}
