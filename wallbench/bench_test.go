package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"heterosw"
	"heterosw/internal/sequence"
	"heterosw/internal/vec"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending, so tailOf must sort
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{n: 2000, pct: 99, value: 1980, beyond: 20},
		{n: 1000, pct: 99, value: 990, beyond: 10},
		{n: 500, pct: 98, value: 490, beyond: 10},
		{n: 11, pct: 100.0 / 11, value: 1, beyond: 10},
		{n: 10, pct: 100, value: 10, beyond: 0}, // too few: the maximum
	} {
		got := tailOf(seq(tc.n))
		if got.N != tc.n || got.Value != tc.value || got.Beyond != tc.beyond || abs(got.Pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: got %+v, want p%.2f = %v with %d beyond", tc.n, got, tc.pct, tc.value, tc.beyond)
		}
		if got.Pct < 100 && got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", tc.n, got.Beyond)
		}
	}
	if got := tailOf([]float64{3, 1, 2}); got.P50 != 2 {
		t.Errorf("median of 1,2,3 = %v", got.P50)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// A sender that takes longer than the arrival gap falls behind: latency
// counts from the due time, so the wait shows in latency and in lag.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	dues := uniformSchedule(6, 100) // every 10 ms
	start := time.Now()
	ts := openLoop(start, dues, 1, func(int) { time.Sleep(service) })
	for i, tm := range ts {
		if want := start.Add(dues[i]); !tm.due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, tm.due, want)
		}
		if tm.latency() != tm.lag()+tm.done.Sub(tm.sent) {
			t.Errorf("request %d: latency %v is not lag %v plus service %v", i, tm.latency(), tm.lag(), tm.done.Sub(tm.sent))
		}
		// Request i cannot start before i services have finished.
		if minLag := time.Duration(i)*service - dues[i]; tm.lag() < minLag {
			t.Errorf("request %d: lag %v, at least %v expected", i, tm.lag(), minLag)
		}
	}
	// The last request waits for every earlier service, then its own.
	last := len(ts) - 1
	if min := time.Duration(last+1)*service - dues[last]; ts[last].latency() < min {
		t.Errorf("last latency %v should include the backlog of earlier requests (at least %v)", ts[last].latency(), min)
	}
	s := summarize(100, start, ts)
	if s.meets(30*time.Millisecond) || s.score < 2*ms(ts[last].lag()-10*time.Millisecond) {
		t.Errorf("an overloaded step must score its growing backlog: %+v", s)
	}
	if s.lag.N != len(ts) || s.lag.Value <= 0 {
		t.Errorf("lateness not reported: %+v", s.lag)
	}
}

func TestOpenLoopOnTimeWhenIdle(t *testing.T) {
	dues := uniformSchedule(5, 50) // every 20 ms
	ts := openLoop(time.Now(), dues, 2, func(int) {})
	s := summarize(50, ts[0].due, ts)
	if !s.meets(50 * time.Millisecond) {
		t.Errorf("an idle step must meet its limit: %+v", s)
	}
}

func TestSLORateInterpolates(t *testing.T) {
	limit := 100 * time.Millisecond
	step := func(rate, scoreMS float64) stepResult { return stepResult{rate: rate, score: scoreMS} }
	// The limit sits halfway between the two steps' log scores.
	got := sloRate([]stepResult{step(10, 50), step(20, 200)}, limit)
	if abs(got-15) > 1e-9 {
		t.Errorf("interpolated rate %v, want 15", got)
	}
	if got := sloRate([]stepResult{step(10, 50), step(20, 60)}, limit); got != 20 {
		t.Errorf("all steps pass: got %v, want the top rate 20", got)
	}
	if got := sloRate([]stepResult{step(10, 200)}, limit); abs(got-5) > 1e-9 {
		t.Errorf("first step fails at twice the limit: got %v, want 5", got)
	}
	// A backlog raises the score above the tail latency.
	ts := []timing{}
	t0 := time.Now()
	for i := 0; i < 8; i++ {
		due := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		late := time.Duration(i) * 20 * time.Millisecond
		ts = append(ts, timing{due: due, sent: due.Add(late), done: due.Add(late + time.Millisecond)})
	}
	if s := summarize(100, t0, ts); s.score <= s.latency.Value || s.score != 2*130 {
		t.Errorf("backlog score %v, tail %v: want twice the last quarter's median lag, 260", s.score, s.latency.Value)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		// Two overlapping children cover 10..60; a third covers 70..80.
		{ID: 2, Parent: 1, Name: "rpc", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "rpc", Start: 20 * ms, End: 60 * ms},
		{ID: 4, Parent: 1, Name: "rpc", Start: 70 * ms, End: 80 * ms},
		// A grandchild covers part of span 2 only.
		{ID: 5, Parent: 2, Name: "node", Start: 15 * ms, End: 45 * ms},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string][2]time.Duration{
		"request": {100 * ms, 40 * ms},              // 100 - (50 + 10)
		"rpc":     {90 * ms, 10*ms + 40*ms + 10*ms}, // span 2 loses its 30 ms child
		"node":    {30 * ms, 30 * ms},
	}
	for name, w := range want {
		if g := got[name]; g.Total != w[0] || g.Self != w[1] {
			t.Errorf("%s: total %v self %v, want %v and %v", name, g.Total, g.Self, w[0], w[1])
		}
	}
	if got["rpc"].Count != 3 {
		t.Errorf("rpc count %d", got["rpc"].Count)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	a := tr.begin("x", 1, 0)
	a.end()
	if a.id() != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	tr = newTracer()
	root := tr.begin("root", 7, 0)
	child := tr.begin("child", root.query(), root.id())
	child.end()
	root.end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != root.id() || spans[0].Query != 7 || spans[1].Query != 7 {
		t.Fatalf("spans %+v", spans)
	}
}

// Drift of the host between interleaved samples cancels: a traced sample
// between two untraced ones that bracket it shows no overhead.
func TestOverheadFromInterleavedSamples(t *testing.T) {
	if got := overhead([]float64{15}, []float64{10, 20}); got != 0 {
		t.Errorf("drift-only overhead %v, want 0", got)
	}
	if got := overhead([]float64{11, 22, 33}, []float64{10, 20, 30}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("overhead %v, want 0.1", got)
	}
	var on, off int
	for i := 0; i < 80; i++ {
		if tracedBlock(i) {
			on++
		} else {
			off++
		}
	}
	if on != 40 || off != 40 || tracedBlock(0) || !tracedBlock(20) {
		t.Errorf("traced blocks: %d traced, %d untraced of 80", on, off)
	}
}

// Only requests whose context carries an open span are traced, on both
// sides of the hop, so traced and untraced requests can share a phase.
func TestTransportTracesOnlySpannedRequests(t *testing.T) {
	tr := newTracer()
	var cur atomic.Pointer[tracer]
	cur.Store(tr)
	srv := httptest.NewServer(tracedHandler(&cur, "server", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})))
	defer srv.Close()
	transport := &tracedTransport{base: http.DefaultTransport, name: "client"}
	client := &http.Client{Transport: transport}
	defer client.CloseIdleConnections()
	get := func(ctx context.Context) {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/x", nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get(context.Background())
	root := tr.begin("request", 3, 0)
	get(withSpan(context.Background(), root))
	root.end()
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want request, client and server: %+v", len(spans), spans)
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if c, s := byName["client"], byName["server"]; c.Parent != root.id() || s.Parent != c.ID || s.Query != 3 {
		t.Errorf("client %+v server %+v: want server under client under request 3", c, s)
	}
	if n, _ := transport.pathCounts("/x"); n != 2 {
		t.Errorf("%d attempts counted, want both requests", n)
	}
}

// A wrong answer is a failed operation, not just a logged one.
func TestWrongAnswerCountsAsFailure(t *testing.T) {
	q := sequence.FromString("Q1", "MKWVTFISLLLLFSSAYS")
	s := sequence.FromString("S1", "MKWVTAISLLFSSAYS")
	want := oracleScore(q, s)
	pairs := []scanPair{{q: 0, s: 1, want: want}}
	queries := []*sequence.Sequence{q}
	good := []*heterosw.ClusterResult{{Result: heterosw.Result{
		Hits:   []heterosw.Hit{{Index: 0, ID: "Q1", Score: 90}},
		Scores: []int{90, want},
	}}}
	var ops tally
	ops.note(checkScan(good, 0, queries, pairs))
	if ops.failed != 0 {
		t.Fatalf("a correct answer failed: %v", ops.firstErr)
	}
	wrongScore := []*heterosw.ClusterResult{{Result: heterosw.Result{
		Hits:   []heterosw.Hit{{Index: 0, ID: "Q1", Score: 90}},
		Scores: []int{90, want + 1},
	}}}
	wrongTop := []*heterosw.ClusterResult{{Result: heterosw.Result{
		Hits:   []heterosw.Hit{{Index: 1, ID: "S1", Score: 95}},
		Scores: []int{90, want},
	}}}
	ops.note(checkScan(wrongScore, 0, queries, pairs))
	ops.note(checkScan(wrongTop, 0, queries, pairs))
	ops.note(errors.New("refused"))
	if ops.attempted != 4 || ops.failed != 3 || ops.errorRate() != 0.75 {
		t.Fatalf("attempted %d failed %d rate %v", ops.attempted, ops.failed, ops.errorRate())
	}

	ev := 1e-5
	bits := 30.5
	hits := []heterosw.Hit{{Index: 2, ID: "A", Score: 40, Significance: &heterosw.HitSignificance{BitScore: bits, EValue: ev}}}
	ok := []heterosw.HitJSON{{Index: 2, ID: "A", Score: 40, EValue: &ev, BitScore: &bits}}
	if err := sameHits(ok, hits, 10); err != nil {
		t.Fatalf("identical hits differ: %v", err)
	}
	wrongEV := 2e-5
	bad := []heterosw.HitJSON{{Index: 2, ID: "A", Score: 40, EValue: &wrongEV, BitScore: &bits}}
	if sameHits(bad, hits, 10) == nil {
		t.Fatal("a wrong E-value passed the check")
	}
}

func TestCheckBackendRefusesLostNative(t *testing.T) {
	if checkBackend(vecInfo("portable", true)) == nil {
		t.Fatal("portable backend on an AVX2 host must fail the run")
	}
	if checkBackend(vecInfo("avx2", true)) != nil || checkBackend(vecInfo("portable", false)) != nil {
		t.Fatal("native backend, or portable without AVX2, must pass")
	}
}

// The metric names and units the program prints must be the ones
// BENCHMARK.json declares, and its workloads the ones the program runs.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("workloads: BENCHMARK.json %v, program %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("workloads: BENCHMARK.json %v, program %v", names, have)
		}
	}
}

func vecInfo(backend string, avx2 bool) vec.BackendInfo {
	return vec.BackendInfo{Backend: backend, AVX2: avx2}
}
