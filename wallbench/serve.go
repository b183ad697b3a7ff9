package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"heterosw"
	"heterosw/internal/alphabet"
	"heterosw/internal/sequence"
)

// The serve database holds short subjects only, none above the
// long-sequence threshold, so the long kernel does no work.
const (
	serveSubjects = 100
	serveMeanLen  = 300
	serveMaxLen   = 2000
	serveQueryLen = 250
	serveHot      = 16
	serveTopK     = 10
)

// The open loop: a nominal phase of --seconds at serveRate gives the
// latency figures; then steps of serveStep each, from serveFirstStep
// requests per second and rising by serveStepGrowth, run until one misses
// the limit, to find slo_rate_rps. Last, a closed loop over serveConns
// connections measures the server's capacity, which qps and gcups report:
// the open-loop phases complete the offered load whatever the server's
// speed, as long as it keeps up. The closed loop runs in chunks of
// serveChunk requests for half of --seconds, and qps and gcups are the
// median chunk's rates, so a stall in one chunk does not move them.
//
// serveRate, like the mix and the hot-query Zipf law below, is an
// assumption: no request log or published statistic of a public
// Smith-Waterman server backs it. It is about a quarter of the capacity
// of a 2-core host, so the latency figures show the service time of each
// request kind rather than queueing, whose growth slo_rate_rps measures.
// At 25 requests per second, half the capacity, short slow spells of a
// shared host queued requests, and the tail latency of ten runs spread by
// a third of its median.
const (
	serveRate      = 12.5 // requests per second
	serveStep      = 2 * time.Second
	serveFirstStep = 37.5 // requests per second
	// serveStepGrowth is fine enough that slo_rate_rps moves little when
	// the knee crosses a step: with steps 1.2 apart, ten runs of the same
	// code spread by a quarter of their median.
	serveStepGrowth = 1.1
	serveMaxSteps   = 14
	serveLimit      = 250 * time.Millisecond
	serveConns      = 2  // client connections: the host's core count
	serveChunk      = 60 // three blocks of the mix
	// serveMaxCapacity bounds the requests per second the capacity phase
	// can use; its chunks are generated for that rate before the clock
	// starts.
	serveMaxCapacity = 250
	// serveWarmN requests, sent at serveWarmRate before the clock starts,
	// cache the hot queries as on a server that has been up a while.
	serveWarmN     = 60
	serveWarmRate  = 30.0
	serveCachedReq = 60
)

// serveOptions are swserve's defaults: the xeon,phi roster with the
// dynamic distribution.
var serveOptions = heterosw.ClusterOptions{
	Options: heterosw.Options{Variant: heterosw.VariantIntrinsicSP},
	Devices: []heterosw.DeviceKind{heterosw.DeviceXeon, heterosw.DevicePhi},
	Dist:    "dynamic",
}

// Request kinds of the serving mix, in shares of every block of 20. The
// shares, and the Zipf law (s = 1.2 over serveHot queries) of the hot
// requests, are assumptions, not measured traffic; together they make
// about 0.3 of the scheduled searches cache hits.
type reqKind int

const (
	kindHot reqKind = iota
	kindDistinct
	kindAlign
	kindTranslated
	kindBatch
)

var kindNames = []string{"hot", "distinct", "align+evalue", "translated", "batch"}

var serveMix = []struct {
	kind reqKind
	n    int
}{{kindHot, 7}, {kindDistinct, 6}, {kindAlign, 3}, {kindTranslated, 2}, {kindBatch, 2}}

// serveReq is one generated request and what answers it in-process.
type serveReq struct {
	kind    reqKind
	path    string
	body    []byte
	queries []heterosw.Sequence // one per expected result, DNA when translated
	rep     heterosw.ReportOptions
	key     string // identifies the request's queries and options
}

type serveFixture struct {
	seqs []*sequence.Sequence
	hot  []*sequence.Sequence
	rng  *rand.Rand
	// order shuffles the kinds within each block. It has a fixed seed, so
	// every run sends the same sequence of request kinds and the seed
	// picks only the queries.
	order  *rand.Rand
	pool   []alphabet.Code
	zipf   *rand.Zipf
	nextID int
}

func runServe(r *runner) error {
	ctx := context.Background()
	seqs := genSeqs("sp", serveSubjects, 1, serveMeanLen, 0.5, serveMaxLen)
	reseed(seqs, r.seed)
	path := filepath.Join(r.dir, "serve.swdb")
	if err := writeIndex(path, seqs); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	fx := &serveFixture{seqs: seqs, rng: rng, order: rand.New(rand.NewSource(1))}
	fx.pool = residuePool(r.seed + 7)
	for i := 0; i < serveHot; i++ {
		fx.hot = append(fx.hot, fx.homolog(serveQueryLen))
	}
	fx.zipf = rand.NewZipf(rng, 1.2, 1, serveHot-1)
	logf("serve: %d subjects, %d residues (longest %d), queries of %d residues, mix per 20: %v",
		len(seqs), residues(seqs), longest(seqs), serveQueryLen, mixString())

	// The reference answers every request in-process for the check, with
	// the library's default static distribution: scores, hits, alignments
	// and E-values do not depend on how a search splits the database, and
	// on this database a static search takes 3 ms where the serving
	// options' dynamic one takes 16 (2-core x86 host), which keeps the
	// check short.
	ref, err := openCluster(path, heterosw.ClusterOptions{Options: serveOptions.Options})
	if err != nil {
		return err
	}
	defer ref.CloseNow()

	var cur atomic.Pointer[tracer]
	client := &http.Client{Transport: &tracedTransport{
		base: &http.Transport{MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns},
		name: "http.client",
	}}
	defer client.CloseIdleConnections()
	var cl *heterosw.Cluster
	var srv *httptest.Server
	var setup, open, first []float64
	probe := fx.request(kindDistinct)
	probeWant, err := reference(ctx, ref, probe)
	if err != nil {
		return err
	}
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.Close()
			cl.CloseNow()
		}
		t0 := time.Now()
		db, err := heterosw.OpenIndexFile(path)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if cl, err = heterosw.NewCluster(db, serveOptions); err != nil {
			return err
		}
		srv = httptest.NewServer(tracedHandler(&cur, "http.handler", heterosw.NewHTTPHandler(cl)))
		t2 := time.Now()
		body, err := post(ctx, client, srv.URL, probe)
		t3 := time.Now()
		setup = append(setup, t3.Sub(t0).Seconds())
		open = append(open, ms(t1.Sub(t0)))
		first = append(first, ms(t3.Sub(t2)))
		if err == nil {
			err = checkServe(probe, body, probeWant)
		}
		r.ops.note(err)
	}
	defer func() { srv.Close(); cl.CloseNow() }()
	r.setE2E("setup_s", median(setup), len(setup))
	r.layer["storage.index_open_ms"] = median(open)
	r.layer["storage.first_query_ms"] = median(first)

	// Generate every request of the run before the clock starts.
	warm := fx.block(serveWarmN)
	nominalN := int(serveRate * r.seconds)
	nominal := fx.block(nominalN)
	var steps [][]serveReq
	var rates []float64
	for rate := serveFirstStep; len(steps) < serveMaxSteps; rate *= serveStepGrowth {
		rates = append(rates, rate)
		steps = append(steps, fx.block(int(rate*serveStep.Seconds())))
	}
	capSeconds := r.seconds / 2
	var chunks [][]serveReq
	for n := 0; n < max(1, int(serveMaxCapacity*capSeconds)); n += serveChunk {
		chunks = append(chunks, fx.block(serveChunk))
	}
	var traced []serveReq
	if r.traced {
		traced = fx.block(nominalN)
	}

	var respBytes, responses int64
	var bodies [][]byte
	var reqs []serveReq
	// phase sends batch on the schedule dues, all zero for a closed loop,
	// and keeps every answer for the check. With a tracer, every other
	// block of 20 requests is traced, so traced and untraced requests
	// carry the same mix.
	phase := func(batch []serveReq, dues []time.Duration, rate float64, tr *tracer) ([]timing, stepResult) {
		out := make([][]byte, len(batch))
		base := len(reqs)
		cur.Store(tr)
		start := time.Now()
		ts := openLoop(start, dues, serveConns, func(i int) {
			var root *active
			if tracedBlock(i) {
				root = tr.begin("request", int64(base+i), 0)
			}
			body, err := post(withSpan(ctx, root), client, srv.URL, batch[i])
			root.end()
			if err != nil {
				body = []byte("error: " + err.Error())
			}
			out[i] = body
		})
		cur.Store(nil)
		for _, b := range out {
			respBytes += int64(len(b))
			responses++
		}
		bodies = append(bodies, out...)
		reqs = append(reqs, batch...)
		return ts, summarize(rate, start, ts)
	}
	openPhase := func(batch []serveReq, rate float64) stepResult {
		_, s := phase(batch, uniformSchedule(len(batch), rate), rate, nil)
		return s
	}

	openPhase(warm, serveWarmRate) // answers checked, latencies not measured
	results := []stepResult{openPhase(nominal, serveRate)}
	for i, rate := range rates {
		s := openPhase(steps[i], rate)
		results = append(results, s)
		if !s.meets(serveLimit) {
			break
		}
	}
	// The capacity phase: closed-loop chunks until half of --seconds
	// has passed, at least one.
	var capRates, capCells []float64
	dbRes := residues(seqs)
	capStart := time.Now()
	for _, chunk := range chunks {
		_, s := phase(chunk, make([]time.Duration, len(chunk)), 0, nil)
		var cells int64
		for _, req := range chunk {
			cells += req.cells(dbRes)
		}
		capRates = append(capRates, float64(len(chunk))/s.elapsed.Seconds())
		capCells = append(capCells, float64(cells)/s.elapsed.Seconds()/1e9)
		if time.Since(capStart).Seconds() >= capSeconds {
			break
		}
	}
	capElapsed := time.Since(capStart)
	st := cl.SchedulerStats()
	hits, _, _ := cl.CacheStats()
	nom := results[0]
	r.setE2E("latency_p50_ms", nom.latency.P50, nom.latency.N)
	r.setE2E("latency_p99_ms", nom.latency.Value, nom.latency.N)
	r.setE2E("qps", median(capRates), len(capRates))
	r.setE2E("gcups", median(capCells), len(capCells))
	r.setE2E("slo_rate_rps", sloRate(results, serveLimit), len(results))
	for _, s := range results {
		logf("serve: rate %6.1f/s latency ms %s; lag ms %s; score %.1f ms, meets the %v limit: %v",
			s.rate, s.latency, s.lag, s.score, serveLimit, s.meets(serveLimit))
	}
	logf("serve: slo_rate_rps %.2f (p99 limit %v)", r.e2e["slo_rate_rps"], serveLimit)
	logf("serve: capacity %.2f req/s, median of %d chunks of %d requests closed-loop over %d connections in %.2f s",
		r.e2e["qps"], len(capRates), serveChunk, serveConns, capElapsed.Seconds())
	logf("serve: scheduler submitted %d, cache hits %d (%.3f), joined %d (%.3f), mean batch %.2f",
		st.Submitted, hits, ratio(float64(st.CacheHits), float64(st.Submitted)),
		st.Joined, ratio(float64(st.Joined), float64(st.Submitted)),
		ratio(float64(st.BatchedQueries), float64(st.Batches)))
	r.layer["loadgen.lag_p99_ms"] = nom.lag.Value
	r.layer["qsched.mean_batch"] = ratio(float64(st.BatchedQueries), float64(st.Batches))
	r.layer["qsched.cache_hit_share"] = ratio(float64(st.CacheHits), float64(st.Submitted))
	r.layer["qsched.join_share"] = ratio(float64(st.Joined), float64(st.Submitted))
	r.layer["http.resp_bytes"] = ratio(float64(respBytes), float64(responses))

	var tr *tracer
	if r.traced {
		tr = newTracer()
		ts, _ := phase(traced, uniformSchedule(len(traced), serveRate), serveRate, tr)
		var on, off []float64
		for i, t := range ts {
			if tracedBlock(i) {
				on = append(on, ms(t.latency()))
			} else {
				off = append(off, ms(t.latency()))
			}
		}
		r.layer["trace.overhead"] = overhead(on, off)
		logf("ratio trace.overhead = %.3f ms traced p50 (n=%d) / %.3f ms untraced p50 (n=%d) of interleaved blocks - 1",
			median(on), len(on), median(off), len(off))
	}

	// Check every answer against an in-process cluster, outside the
	// timed region. Each distinct request is answered once.
	type refAnswer struct {
		want []*heterosw.ClusterResult
		err  error
		took time.Duration
	}
	slot := map[string]int{}
	var distinct []serveReq
	for _, req := range reqs {
		if _, ok := slot[req.key]; !ok {
			slot[req.key] = len(distinct)
			distinct = append(distinct, req)
		}
	}
	answers := make([]refAnswer, len(distinct))
	for j, req := range distinct {
		t0 := time.Now()
		want, err := reference(ctx, ref, req)
		answers[j] = refAnswer{want: want, err: err, took: time.Since(t0)}
	}
	perKind := make([][]float64, len(kindNames))
	for j, req := range distinct {
		perKind[req.kind] = append(perKind[req.kind], ms(answers[j].took))
	}
	for i, req := range reqs {
		a := answers[slot[req.key]]
		err := a.err
		if err == nil {
			err = checkServe(req, bodies[i], a.want)
		}
		r.ops.note(err)
	}
	for k, d := range perKind {
		logf("serve: %-12s in-process static answer ms p50 %.2f (n=%d)", kindNames[k], median(d), len(d))
	}

	if !r.traced {
		return nil
	}
	// qsched.wait_ms and the layer probes run on a cluster with the
	// serving options. Its answers to the distinct score-only requests,
	// one at a time, are their isolated direct latencies.
	dcl, err := openCluster(path, serveOptions)
	if err != nil {
		return err
	}
	defer dcl.CloseNow()
	direct := map[string]time.Duration{}
	for _, req := range distinct {
		if req.kind != kindDistinct {
			continue
		}
		t0 := time.Now()
		if _, err := reference(ctx, dcl, req); err != nil {
			return err
		}
		direct[req.key] = time.Since(t0)
	}
	r.layer["qsched.wait_ms"] = waitMS(tr.snapshot(), reqs, direct)
	cached, err := cachedLatency(ctx, client, srv.URL, fx)
	if err != nil {
		return err
	}
	r.layer["http.cached_p50_ms"] = cached
	logf("http: cache-hit request p50 %.3f ms over %d sequential requests; mean response %.0f bytes",
		cached, serveCachedReq, r.layer["http.resp_bytes"])
	noRemote(r)
	sample := []*sequence.Sequence{fx.homolog(serveQueryLen), fx.homolog(serveQueryLen), fx.homolog(serveQueryLen)}
	if err := r.probeLayers(ctx, layerInputs{seqs: seqs, queries: sample, cluster: dcl, indexPath: path, e2eGCUPS: r.e2e["gcups"]}, tr); err != nil {
		return err
	}
	return r.printLayers(tr)
}

// tracedBlock reports whether request i of a traced phase is traced:
// every other block of 20, so both halves carry the exact mix.
func tracedBlock(i int) bool { return i/20%2 == 1 }

// cells is the request's useful cell count against dbRes residues. A
// translated query is searched as its six reading frames.
func (req serveReq) cells(dbRes int64) int64 {
	var n int64
	for _, q := range req.queries {
		if req.kind != kindTranslated {
			n += int64(q.Len()) * dbRes
			continue
		}
		for f := 0; f < 3; f++ {
			n += 2 * int64((q.Len()-f)/3) * dbRes
		}
	}
	return n
}

// homolog draws a fresh query of n residues from a random subject at
// least that long, so the cells of a request do not depend on the seed.
func (fx *serveFixture) homolog(n int) *sequence.Sequence {
	fx.nextID++
	src := fx.seqs[fx.rng.Intn(len(fx.seqs))]
	for src.Len() < n {
		src = fx.seqs[fx.rng.Intn(len(fx.seqs))]
	}
	return homolog(fx.rng, fmt.Sprintf("q%06d", fx.nextID), src, n, 0.2, fx.pool)
}

// block draws n requests in blocks of 20 holding the exact mix, each block
// in a shuffled order.
func (fx *serveFixture) block(n int) []serveReq {
	out := make([]serveReq, 0, n+20)
	for len(out) < n {
		var kinds []reqKind
		for _, m := range serveMix {
			for j := 0; j < m.n; j++ {
				kinds = append(kinds, m.kind)
			}
		}
		fx.order.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			out = append(out, fx.request(k))
		}
	}
	return out[:n]
}

type searchBody struct {
	ID        string `json:"id"`
	Residues  string `json:"residues"`
	TopK      int    `json:"top_k"`
	Align     bool   `json:"align,omitempty"`
	EValue    bool   `json:"evalue,omitempty"`
	Translate bool   `json:"translate,omitempty"`
}

type batchQuery struct {
	ID       string `json:"id"`
	Residues string `json:"residues"`
}

type batchBody struct {
	Queries []batchQuery `json:"queries"`
	TopK    int          `json:"top_k"`
}

func (fx *serveFixture) request(k reqKind) serveReq {
	req := serveReq{kind: k, path: "/search"}
	var sb searchBody
	switch k {
	case kindHot:
		q := fx.hot[fx.zipf.Uint64()]
		sb = searchBody{ID: q.ID, Residues: q.String()}
		req.queries = []heterosw.Sequence{pub(q)}
	case kindDistinct, kindAlign:
		q := fx.homolog(serveQueryLen)
		sb = searchBody{ID: q.ID, Residues: q.String()}
		req.queries = []heterosw.Sequence{pub(q)}
		if k == kindAlign {
			sb.Align, sb.EValue = true, true
			req.rep = heterosw.ReportOptions{Alignments: true, EValues: true, TopK: serveTopK}
		}
	case kindTranslated:
		q := fx.homolog(serveQueryLen / 2)
		dna := backTranslate(q.String())
		sb = searchBody{ID: q.ID, Residues: dna, Translate: true}
		req.queries = []heterosw.Sequence{heterosw.NewDNASequence(q.ID, dna)}
	case kindBatch:
		var bb batchBody
		for j := 0; j < 3; j++ {
			q := fx.homolog(serveQueryLen / 2)
			bb.Queries = append(bb.Queries, batchQuery{ID: q.ID, Residues: q.String()})
			req.queries = append(req.queries, pub(q))
		}
		bb.TopK = serveTopK
		req.path = "/batch"
		req.body, _ = json.Marshal(bb) // plain structs always encode
	}
	if req.body == nil {
		sb.TopK = serveTopK
		req.body, _ = json.Marshal(sb)
	}
	var keys []string
	for _, q := range req.queries {
		keys = append(keys, q.ID())
	}
	req.key = fmt.Sprintf("%d|%s", k, strings.Join(keys, ","))
	return req
}

// codons back-translates a protein into one fixed codon per residue; the
// translated search must then find the source subject in frame +1.
var codons = map[byte]string{
	'A': "GCT", 'R': "CGT", 'N': "AAT", 'D': "GAT", 'C': "TGT", 'Q': "CAA", 'E': "GAA",
	'G': "GGT", 'H': "CAT", 'I': "ATT", 'L': "CTG", 'K': "AAA", 'M': "ATG", 'F': "TTT",
	'P': "CCT", 'S': "TCT", 'T': "ACT", 'W': "TGG", 'Y': "TAT", 'V': "GTT",
}

func backTranslate(protein string) string {
	var b strings.Builder
	for i := 0; i < len(protein); i++ {
		c, ok := codons[protein[i]]
		if !ok {
			c = "NNN"
		}
		b.WriteString(c)
	}
	return b.String()
}

// post sends one request and returns its body; a non-200 answer is an
// error.
func post(ctx context.Context, client *http.Client, base string, req serveReq) ([]byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(hr)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", req.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// reference answers req in-process, one result per query.
func reference(ctx context.Context, ref *heterosw.Cluster, req serveReq) ([]*heterosw.ClusterResult, error) {
	out := make([]*heterosw.ClusterResult, len(req.queries))
	for qi, q := range req.queries {
		var err error
		if req.kind == kindTranslated {
			out[qi], err = ref.SearchTranslatedContext(ctx, q, req.rep)
		} else {
			out[qi], err = ref.SearchContext(ctx, q, req.rep)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %v", req.key, err)
		}
	}
	return out, nil
}

// checkServe compares a response with the in-process answers to the same
// request: hit indices, IDs, scores and frames, and the alignments and
// E-values where requested.
func checkServe(req serveReq, body []byte, want []*heterosw.ClusterResult) error {
	var got []heterosw.SearchJSON
	if req.path == "/batch" {
		var b heterosw.BatchJSON
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("%s: %v: %.80s", req.key, err, body)
		}
		got = b.Results
	} else {
		var s heterosw.SearchJSON
		if err := json.Unmarshal(body, &s); err != nil {
			return fmt.Errorf("%s: %v: %.80s", req.key, err, body)
		}
		got = []heterosw.SearchJSON{s}
	}
	if len(got) != len(req.queries) {
		return fmt.Errorf("%s: %d results for %d queries", req.key, len(got), len(req.queries))
	}
	for qi, q := range req.queries {
		if err := sameHits(got[qi].Hits, want[qi].Hits, serveTopK); err != nil {
			return fmt.Errorf("%s query %s: %v", req.key, q.ID(), err)
		}
	}
	return nil
}

func sameHits(got []heterosw.HitJSON, want []heterosw.Hit, topK int) error {
	if len(want) > topK {
		want = want[:topK]
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Index != w.Index || g.ID != w.ID || g.Score != w.Score || g.Frame != w.Frame {
			return fmt.Errorf("hit %d: %s/%d score %d, want %s/%d score %d", i, g.ID, g.Index, g.Score, w.ID, w.Index, w.Score)
		}
		if (g.Alignment == nil) != (w.Alignment == nil) {
			return fmt.Errorf("hit %d: alignment presence differs", i)
		}
		if a, b := g.Alignment, w.Alignment; a != nil {
			if a.QueryStart != b.QueryStart || a.QueryEnd != b.QueryEnd || a.SubjectStart != b.SubjectStart ||
				a.SubjectEnd != b.SubjectEnd || a.CIGAR != b.CIGAR || a.Identities != b.Identities || a.Columns != b.Columns {
				return fmt.Errorf("hit %d: alignment %+v, want %+v", i, *a, *b)
			}
		}
		if (g.EValue == nil) != (w.Significance == nil) {
			return fmt.Errorf("hit %d: significance presence differs", i)
		}
		if g.EValue != nil && (*g.EValue != w.Significance.EValue || *g.BitScore != w.Significance.BitScore) {
			return fmt.Errorf("hit %d: evalue %g bits %g, want %g bits %g", i, *g.EValue, *g.BitScore,
				w.Significance.EValue, w.Significance.BitScore)
		}
	}
	return nil
}

// waitMS is the mean time a distinct score-only request spent in the
// server beyond its isolated direct search: the handler span minus the
// direct latency of the same query.
func waitMS(spans []span, reqs []serveReq, direct map[string]time.Duration) float64 {
	var sum float64
	var n int
	for _, s := range spans {
		if s.Name != "http.handler" || int(s.Query) >= len(reqs) {
			continue
		}
		req := reqs[s.Query]
		d, ok := direct[req.key]
		if req.kind != kindDistinct || !ok {
			continue
		}
		sum += ms(s.End-s.Start) - ms(d)
		n++
	}
	return ratio(sum, float64(n))
}

// cachedLatency times sequential requests for a query the cache holds, so
// what remains is JSON decode, encode and the loopback hop.
func cachedLatency(ctx context.Context, client *http.Client, base string, fx *serveFixture) (float64, error) {
	req := fx.request(kindHot)
	var lat []float64
	for i := 0; i <= serveCachedReq; i++ {
		t0 := time.Now()
		if _, err := post(ctx, client, base, req); err != nil {
			return 0, err
		}
		if i > 0 { // the first may miss
			lat = append(lat, ms(time.Since(t0)))
		}
	}
	return median(lat), nil
}

func openCluster(path string, opt heterosw.ClusterOptions) (*heterosw.Cluster, error) {
	db, err := heterosw.OpenIndexFile(path)
	if err != nil {
		return nil, err
	}
	return heterosw.NewCluster(db, opt)
}

func longest(seqs []*sequence.Sequence) int {
	n := 0
	for _, s := range seqs {
		n = max(n, s.Len())
	}
	return n
}

func mixString() string {
	var parts []string
	for _, m := range serveMix {
		parts = append(parts, fmt.Sprintf("%s %d", kindNames[m.kind], m.n))
	}
	return strings.Join(parts, ", ")
}
