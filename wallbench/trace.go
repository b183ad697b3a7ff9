package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one query share Query;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Query  int64         `json:"query"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span; end closes it.
type active struct {
	tr *tracer
	sp span
}

// begin opens a span named name under parent (0 for a root) for query.
func (t *tracer) begin(name string, query, parent int64) *active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &active{tr: t, sp: span{ID: id, Parent: parent, Query: query, Name: name, Start: time.Since(t.t0)}}
}

// end closes the span and records it.
func (a *active) end() {
	if a == nil {
		return
	}
	a.sp.End = time.Since(a.tr.t0)
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.sp)
	a.tr.mu.Unlock()
}

func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.sp.ID
}

// tracer is the tracer recording the span, nil for a nil span.
func (a *active) tracer() *tracer {
	if a == nil {
		return nil
	}
	return a.tr
}

func (a *active) query() int64 {
	if a == nil {
		return 0
	}
	return a.sp.Query
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is the total and self time of every span with one name.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; overlapping
// children (parallel fan-out) count once.
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*layerTime)
	var names []string
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, children[s.ID])
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	return total + curB - curA
}

// writeSpans writes the spans as JSON, one per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

type spanKey struct{}

// withSpan carries an open span in ctx so calls the program makes on the
// benchmark's behalf (HTTP round trips) can parent their spans to it.
func withSpan(ctx context.Context, a *active) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, a)
}

func spanFrom(ctx context.Context) *active {
	a, _ := ctx.Value(spanKey{}).(*active)
	return a
}

// Headers carrying a span's identity across a loopback HTTP hop.
const (
	hdrSpan  = "X-Wallbench-Span"
	hdrQuery = "X-Wallbench-Query"
)

// tracedTransport records one span per HTTP round trip whose context
// carries an open span, parented to that span, and forwards the span's
// identity so the server side can parent its own span to it. A request
// without a span in its context is not traced, so traced and untraced
// requests can be interleaved. It also counts attempts and response bytes
// per URL path whether or not tracing is on.
type tracedTransport struct {
	base http.RoundTripper
	name string

	mu    sync.Mutex
	paths map[string]*pathCount
}

type pathCount struct{ attempts, bytes int64 }

// count returns path's counters, creating them; t.mu must be held.
func (t *tracedTransport) count(path string) *pathCount {
	if t.paths == nil {
		t.paths = map[string]*pathCount{}
	}
	c := t.paths[path]
	if c == nil {
		c = &pathCount{}
		t.paths[path] = c
	}
	return c
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	a := parent.tracer().begin(t.name, parent.query(), parent.id())
	if a != nil {
		req = req.Clone(req.Context())
		req.Header.Set(hdrSpan, strconv.FormatInt(a.id(), 10))
		req.Header.Set(hdrQuery, strconv.FormatInt(a.query(), 10))
	}
	resp, err := t.base.RoundTrip(req)
	t.mu.Lock()
	t.count(req.URL.Path).attempts++
	t.mu.Unlock()
	if err != nil {
		a.end()
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: t, path: req.URL.Path, a: a}
	return resp, nil
}

// countingBody adds the bytes read to its transport's total and ends the
// round-trip span once the caller closes the body.
type countingBody struct {
	io.ReadCloser
	t    *tracedTransport
	path string
	a    *active
	n    int64
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.a.end()
		b.t.mu.Lock()
		b.t.count(b.path).bytes += b.n
		b.t.mu.Unlock()
	})
	return err
}

// load returns the tracer a switch currently holds, nil when off.
func load(p *atomic.Pointer[tracer]) *tracer {
	if p == nil {
		return nil
	}
	return p.Load()
}

// tracedHandler records a server-side span for each request that names a
// client span in its headers, parented to that span, while tr holds a
// tracer.
func tracedHandler(tr *atomic.Pointer[tracer], name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		query, _ := strconv.ParseInt(r.Header.Get(hdrQuery), 10, 64)
		var a *active
		if parent != 0 {
			a = load(tr).begin(name, query, parent)
		}
		h.ServeHTTP(w, r)
		a.end()
	})
}

// overhead is the tracing overhead from interleaved samples: the median
// latency of the traced samples over the median of the untraced samples
// taken alongside them, minus one. Because both kinds run in the same
// stretch of time, drift of the host cancels.
func overhead(traced, untraced []float64) float64 {
	return ratio(median(traced), median(untraced)) - 1
}

func (lt layerTime) String() string {
	return fmt.Sprintf("%-16s n=%-6d total %10.1f ms  self %10.1f ms  self/call %8.3f ms",
		lt.Name, lt.Count, ms(lt.Total), ms(lt.Self), ms(lt.Self)/float64(max(lt.Count, 1)))
}
