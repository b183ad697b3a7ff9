package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heterosw"
	"heterosw/internal/sequence"
)

// The fanout database holds many short subjects, so the per-query score
// lists the shards send back are a real share of the work.
const (
	fanoutSubjects = 3000
	fanoutMeanLen  = 60
	fanoutMaxLen   = 400
	fanoutQueryLen = 60
	fanoutShards   = 2
	fanoutCallers  = 2 // closed-loop callers: the host's core count
	fanoutAlignK   = 5
	// Every fanoutAlignEvery-th query asks for tracebacks, which the
	// coordinator fans out as /shard/align requests. The share is an
	// assumption, not measured traffic.
	fanoutAlignEvery = 5
	fanoutLimit      = 500 * time.Millisecond
	fanoutRatioReps  = 10
	// fanoutWarm distinct queries fill the nodes' result caches before the
	// clock starts. Distinct queries never hit them, but a full cache is
	// the steady state a long-running node serves from: the heap, and the
	// garbage collector's work per query, stop growing.
	fanoutWarm = 520
)

type fanoutQuery struct {
	seq heterosw.Sequence
	rep []heterosw.ReportOptions
}

// fanoutNode is one loopback shard node.
type fanoutNode struct {
	srv      *httptest.Server
	ss       *heterosw.ShardServer
	clusters []*heterosw.Cluster
}

func (n *fanoutNode) close() {
	n.srv.Close()
	n.ss.CloseNow()
}

// fanoutTopology is a coordinator with its nodes.
type fanoutTopology struct {
	coord *heterosw.Cluster
	nodes []*fanoutNode
}

func (t *fanoutTopology) close() {
	if t == nil {
		return
	}
	t.coord.CloseNow()
	for _, n := range t.nodes {
		n.close()
	}
}

func runFanout(r *runner) error {
	ctx := context.Background()
	seqs := genSeqs("fs", fanoutSubjects, 1, fanoutMeanLen, 0.4, fanoutMaxLen)
	reseed(seqs, r.seed)
	parent := filepath.Join(r.dir, "fanout.swdb")
	if err := writeIndex(parent, seqs); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	pool := residuePool(r.seed + 7)
	next := 0
	// A query drawn from a short subject can repeat an earlier one
	// residue for residue, and the nodes would rightly serve the repeat
	// from cache; fresh redraws until the query is new.
	seen := map[string]bool{}
	fresh := func() fanoutQuery {
		next++
		var q *sequence.Sequence
		for q == nil || seen[q.String()] {
			q = homolog(rng, fmt.Sprintf("f%06d", next), seqs[rng.Intn(len(seqs))], fanoutQueryLen, 0.2, pool)
		}
		seen[q.String()] = true
		fq := fanoutQuery{seq: pub(q)}
		if next%fanoutAlignEvery == 0 {
			fq.rep = []heterosw.ReportOptions{{Alignments: true, TopK: fanoutAlignK}}
		}
		return fq
	}
	dbRes := residues(seqs)
	logf("fanout: %d subjects, %d residues in %d shards, %d callers, queries of %d residues, 1 in %d aligned",
		len(seqs), dbRes, fanoutShards, fanoutCallers, fanoutQueryLen, fanoutAlignEvery)

	ref, err := openCluster(parent, heterosw.ClusterOptions{})
	if err != nil {
		return err
	}
	defer ref.CloseNow()

	var cur atomic.Pointer[tracer]
	transport := &tracedTransport{base: &http.Transport{MaxIdleConnsPerHost: 8}, name: "remote.rpc"}
	client := &http.Client{Transport: transport}
	defer client.CloseIdleConnections()

	var topo *fanoutTopology
	defer func() { topo.close() }()
	var setup, open, split, first []float64
	for rep := 0; rep < setupReps; rep++ {
		topo.close()
		probe := fresh()
		want, err := canonHash(ref.SearchContext(ctx, probe.seq, probe.rep...))
		if err != nil {
			return err
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("shards-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var st setupTimes
		t0 := time.Now()
		topo, err = buildTopology(ctx, parent, dir, client, &cur, &st)
		if err != nil {
			return err
		}
		t1 := time.Now()
		got, err := canonHash(topo.coord.SearchContext(ctx, probe.seq, probe.rep...))
		t2 := time.Now()
		setup = append(setup, t2.Sub(t0).Seconds())
		open, split, first = append(open, ms(st.open)), append(split, ms(st.split)), append(first, ms(t2.Sub(t1)))
		if err == nil && got != want {
			err = fmt.Errorf("set-up query: coordinator answer differs from the in-process one")
		}
		r.ops.note(err)
	}
	r.setE2E("setup_s", median(setup), len(setup))
	r.layer["storage.index_open_ms"] = median(open)
	r.layer["storage.split_ms"] = median(split)
	r.layer["storage.first_query_ms"] = median(first)
	logf("fanout: set-up s %v (split, %d node clusters, probes, first query)", setup, fanoutShards)

	type answer struct {
		q      fanoutQuery
		hash   [32]byte
		err    error
		done   time.Duration // since the phase started
		lat    float64       // ms
		traced bool
	}
	// One closed-loop phase: fanoutCallers callers, each sending its next
	// distinct query as soon as the previous one is answered, until the
	// phase has run for seconds or sent limit queries. With a tracer, every
	// other query is traced.
	phase := func(tr *tracer, seconds float64, limit int) (lat []float64, answers []answer, elapsed time.Duration) {
		cur.Store(tr)
		defer cur.Store(nil)
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		stop := start.Add(time.Duration(seconds * float64(time.Second)))
		for c := 0; c < fanoutCallers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					mu.Lock()
					if len(answers) >= limit {
						mu.Unlock()
						return
					}
					q := fresh()
					id := int64(len(answers))
					answers = append(answers, answer{q: q})
					mu.Unlock()
					var root, a *active
					if id%2 == 1 {
						root = tr.begin("request", id, 0)
						a = tr.begin("coordinator", id, root.id())
					}
					t0 := time.Now()
					res, err := topo.coord.SearchContext(withSpan(ctx, a), q.seq, q.rep...)
					d := time.Since(t0)
					a.end()
					root.end()
					h, herr := canonHash(res, err)
					mu.Lock()
					lat = append(lat, ms(d))
					answers[id].hash, answers[id].err, answers[id].done = h, herr, time.Since(start)
					answers[id].lat, answers[id].traced = ms(d), root != nil
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return lat, answers, time.Since(start)
	}

	_, warm, _ := phase(nil, 120, fanoutWarm)
	searches0, bytes0 := transport.pathCounts("/shard/search")
	lat, answers, elapsed := phase(nil, r.seconds, math.MaxInt)
	searches1, bytes1 := transport.pathCounts("/shard/search")
	t := tailOf(lat)
	var cells int64
	for _, a := range answers {
		cells += int64(a.q.seq.Len()) * dbRes
	}
	qps := float64(len(answers)) / elapsed.Seconds()
	r.setE2E("qps", qps, t.N)
	r.setE2E("gcups", float64(cells)/elapsed.Seconds()/1e9, t.N)
	r.setE2E("latency_p50_ms", t.P50, t.N)
	r.setE2E("latency_p99_ms", t.Value, t.N)
	r.setE2E("slo_rate_rps", closedLoopSLO(qps, t.Value, fanoutLimit), t.N)
	logf("fanout: %d queries in %.2f s, latency ms %s", len(answers), elapsed.Seconds(), t)
	var dones []time.Duration
	for _, a := range answers {
		dones = append(dones, a.done)
	}
	w := windowRates(dones, elapsed)
	logf("fanout: completed q/s per second: %v", w)

	var tr *tracer
	var tanswers []answer
	if r.traced {
		// Traced and untraced queries alternate within one phase.
		tr = newTracer()
		_, tanswers, _ = phase(tr, r.seconds, math.MaxInt)
		var on, off []float64
		for _, a := range tanswers {
			if a.traced {
				on = append(on, a.lat)
			} else {
				off = append(off, a.lat)
			}
		}
		r.layer["trace.overhead"] = overhead(on, off)
		logf("ratio trace.overhead = %.3f ms traced p50 (n=%d) / %.3f ms untraced p50 (n=%d) of interleaved queries - 1",
			median(on), len(on), median(off), len(off))
	}

	// Cold paths stay cold: distinct queries never hit a node cache or
	// join an in-flight twin.
	var batches, batched int64
	for i, n := range topo.nodes {
		for j, c := range n.clusters {
			hits, _, _ := c.CacheStats()
			st := c.SchedulerStats()
			batches += st.Batches
			batched += st.BatchedQueries
			logf("fanout: node %d shard %d: scheduled %d, cache hits %d, joined %d", i, j, st.Submitted, hits, st.Joined)
			if hits != 0 || st.Joined != 0 {
				r.ops.note(fmt.Errorf("node %d shard %d: %d cache hits, %d joins on distinct queries", i, j, hits, st.Joined))
			}
		}
	}

	// Every answer, warm-up ones too, must equal the in-process answer
	// over the unsplit parent database, byte for byte once timing fields
	// are dropped.
	all := append(append(warm, answers...), tanswers...)
	errs := make([]error, len(all))
	parallel(len(all), fanoutCallers, func(i int) {
		a := all[i]
		err := a.err
		if err == nil {
			var want [32]byte
			if want, err = canonHash(ref.SearchContext(ctx, a.q.seq, a.q.rep...)); err == nil && want != a.hash {
				err = fmt.Errorf("query %s: coordinator answer differs from the in-process one", a.q.seq.ID())
			}
		}
		errs[i] = err
	})
	for _, err := range errs {
		r.ops.note(err)
	}
	if !r.traced {
		return nil
	}

	attempts := float64(searches1 - searches0)
	r.layer["remote.attempts_per_request"] = attempts / float64(len(answers)*fanoutShards)
	r.layer["remote.resp_bytes"] = ratio(float64(bytes1-bytes0), attempts)
	logf("ratio remote.attempts_per_request = %.0f /shard/search attempts / (%d queries x %d shards)", attempts, len(answers), fanoutShards)
	rtt, wire := rpcTimes(tr.snapshot())
	r.layer["remote.shard_rtt_ms"], r.layer["remote.wire_ms"] = rtt, wire
	logf("remote: shard round trip %.3f ms, of which %.3f ms outside the node handler", rtt, wire)
	r.layer["qsched.mean_batch"] = ratio(float64(batched), float64(batches))
	r.layer["qsched.cache_hit_share"], r.layer["qsched.join_share"], r.layer["qsched.wait_ms"] = 0, 0, 0
	r.layer["http.cached_p50_ms"], r.layer["http.resp_bytes"], r.layer["loadgen.lag_p99_ms"] = 0, 0, 0

	// Coordinator against an in-process cluster over the parent, on fresh
	// queries alternating between the two.
	var coordT, localT time.Duration
	for i := 0; i < fanoutRatioReps; i++ {
		q := fresh()
		q.rep = nil
		d, err := timed(func() error { _, err := topo.coord.SearchContext(ctx, q.seq); return err })
		if err != nil {
			return err
		}
		coordT += d
		d, err = timed(func() error { _, err := ref.SearchContext(ctx, q.seq); return err })
		if err != nil {
			return err
		}
		localT += d
	}
	r.layer["remote.over_inprocess"] = ratio(coordT.Seconds(), localT.Seconds())
	logf("ratio remote.over_inprocess = %.2f ms coordinator / %.2f ms in-process per query",
		ms(coordT)/fanoutRatioReps, ms(localT)/fanoutRatioReps)

	var sample []*sequence.Sequence
	for i := 0; i < 3; i++ {
		sample = append(sample, homolog(rng, fmt.Sprintf("probe%d", i), seqs[rng.Intn(len(seqs))], fanoutQueryLen, 0.2, pool))
	}
	if err := r.probeLayers(ctx, layerInputs{seqs: seqs, queries: sample, cluster: ref, indexPath: parent, e2eGCUPS: r.e2e["gcups"]}, tr); err != nil {
		return err
	}
	return r.printLayers(tr)
}

type setupTimes struct{ split, open time.Duration }

// buildTopology splits the parent index, starts one loopback node per
// shard and a coordinator over them: the set-up a distributed deployment
// pays before its first answer.
func buildTopology(ctx context.Context, parent, dir string, client *http.Client, cur *atomic.Pointer[tracer], st *setupTimes) (*fanoutTopology, error) {
	t0 := time.Now()
	manifest, err := heterosw.SplitIndexFile(parent, fanoutShards, dir, "shard")
	if err != nil {
		return nil, err
	}
	st.split = time.Since(t0)
	topo := &fanoutTopology{}
	var urls []string
	for i := 0; i < fanoutShards; i++ {
		t0 = time.Now()
		db, err := heterosw.OpenIndexFile(filepath.Join(dir, fmt.Sprintf("shard-%02d.swdb", i)))
		st.open += time.Since(t0)
		if err != nil {
			return nil, err
		}
		cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{})
		if err != nil {
			return nil, err
		}
		ss, err := heterosw.NewShardServer([]*heterosw.Cluster{cl})
		if err != nil {
			return nil, err
		}
		n := &fanoutNode{ss: ss, clusters: []*heterosw.Cluster{cl}}
		n.srv = httptest.NewServer(tracedHandler(cur, "remote.node", ss.Handler()))
		topo.nodes = append(topo.nodes, n)
		urls = append(urls, n.srv.URL)
	}
	t0 = time.Now()
	pdb, err := heterosw.OpenIndexFile(parent)
	st.open += time.Since(t0)
	if err != nil {
		return nil, err
	}
	topo.coord, err = heterosw.NewDistributedCluster(ctx, pdb, manifest, urls, heterosw.DistributedOptions{
		HTTPClient: client, ProbeInterval: -1,
	})
	if err != nil {
		for _, n := range topo.nodes {
			n.close()
		}
		return nil, err
	}
	return topo, nil
}

// canonHash hashes a result's encoding without the fields that
// legitimately differ between topologies and runs: wall and simulated
// timing, thread counts and per-backend accounting.
func canonHash(res *heterosw.ClusterResult, err error) ([32]byte, error) {
	if err != nil {
		return [32]byte{}, err
	}
	c := *res
	c.WallSeconds, c.WallGCUPS = 0, 0
	c.SimSeconds, c.SimGCUPS = 0, 0
	c.Threads = 0
	c.Backends = nil
	raw, err := json.Marshal(&c)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(raw), nil
}

// rpcTimes averages the shard round trips and the part of each that no
// node handler span covers: the wire, encode and decode.
func rpcTimes(spans []span) (rttMS, wireMS float64) {
	var rpcs []span
	for _, s := range spans {
		if s.Name == "remote.rpc" {
			rpcs = append(rpcs, s)
		}
	}
	if len(rpcs) == 0 {
		return 0, 0
	}
	var self float64
	for _, lt := range selfTimes(spans) {
		if lt.Name == "remote.rpc" {
			self = ms(lt.Self)
		}
	}
	var total float64
	for _, s := range rpcs {
		total += ms(s.End - s.Start)
	}
	return total / float64(len(rpcs)), self / float64(len(rpcs))
}

// pathCounts reports the attempts and response bytes of requests whose
// URL path starts with prefix.
func (t *tracedTransport) pathCounts(prefix string) (attempts, respBytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for path, c := range t.paths {
		if strings.HasPrefix(path, prefix) {
			attempts += c.attempts
			respBytes += c.bytes
		}
	}
	return attempts, respBytes
}

// windowRates counts completions per whole second of a phase.
func windowRates(dones []time.Duration, elapsed time.Duration) []float64 {
	n := int(elapsed / time.Second)
	out := make([]float64, n)
	for _, d := range dones {
		if i := int(d / time.Second); i < n {
			out[i]++
		}
	}
	return out
}
