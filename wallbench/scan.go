package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"heterosw"
	"heterosw/internal/datagen"
	"heterosw/internal/sequence"
)

// scanScale sizes the scan database as a fraction of Swiss-Prot: the
// smallest scale at which the generator plants the 35,213-residue
// outlier, so one pass carries the long-subject tail the paper's database
// has. The length profile is the generator's; the seed picks residues.
const scanScale = 0.002

// scanLimit is the latency limit of one 20-query pass for slo_rate_rps.
const scanLimit = 60 * time.Second

// scanMinPasses is the fewest 20-query passes a run measures, whatever
// --seconds says: a pass takes 11-20 s on a 2-core host, and the median
// of a single pass would carry all of that pass's noise.
const scanMinPasses = 2

// setupReps is how many times each workload sets itself up; setup_s is
// the median.
const setupReps = 31

// oraclePairs is how many random (query, subject) pairs scan re-scores
// with the oracle, besides the pair with the planted outlier.
const oraclePairs = 8

type scanPair struct{ q, s, want int }

func runScan(r *runner) error {
	ctx := context.Background()
	seqs := datagen.Generate(datagen.SwissProtConfig(scanScale))
	reseed(seqs, r.seed)
	outlier := 0
	for i, s := range seqs {
		if s.Len() == datagen.SwissProtMaxLen {
			outlier = i
		}
	}
	if seqs[outlier].Len() != datagen.SwissProtMaxLen {
		return fmt.Errorf("scan database lacks the %d-residue outlier", datagen.SwissProtMaxLen)
	}
	queries := datagen.GenerateQueries(r.seed)
	datagen.PlantQueries(seqs, queries)
	path := filepath.Join(r.dir, "scan.swdb")
	if err := writeIndex(path, seqs); err != nil {
		return err
	}
	pq := make([]heterosw.Sequence, len(queries))
	var qres int64
	for i, q := range queries {
		pq[i] = pub(q)
		qres += int64(q.Len())
	}
	dbRes := residues(seqs)
	cells := qres * dbRes
	logf("scan: %d subjects, %d residues (longest %d), %d queries, %d residues; %.3g cells per pass",
		len(seqs), dbRes, seqs[outlier].Len(), len(queries), qres, float64(cells))
	pairs := scanOracle(r.seed, seqs, queries, outlier)

	var cl *heterosw.Cluster
	var setup, open, first []float64
	for rep := 0; rep < setupReps; rep++ {
		if cl != nil {
			cl.CloseNow()
		}
		t0 := time.Now()
		db, err := heterosw.OpenIndexFile(path)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if cl, err = heterosw.NewCluster(db, heterosw.ClusterOptions{}); err != nil {
			return err
		}
		t2 := time.Now()
		res, err := cl.SearchContext(ctx, pq[0])
		t3 := time.Now()
		setup = append(setup, t3.Sub(t0).Seconds())
		open = append(open, ms(t1.Sub(t0)))
		first = append(first, ms(t3.Sub(t2)))
		if err == nil && res.Hits[0].ID != queries[0].ID {
			err = fmt.Errorf("set-up query %s: top hit %s", queries[0].ID, res.Hits[0].ID)
		}
		r.ops.note(err)
	}
	defer cl.CloseNow()
	r.setE2E("setup_s", median(setup), len(setup))
	r.layer["storage.index_open_ms"] = median(open)
	r.layer["storage.first_query_ms"] = median(first)

	hits0, misses0, _ := cl.CacheStats()
	// passes runs 20-query passes for seconds, at least minPasses.
	passes := func(tr *tracer, seconds float64, minPasses int) ([]float64, error) {
		var lat []float64
		stop := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for len(lat) < minPasses || time.Now().Before(stop) {
			root := tr.begin("pass", int64(len(lat)), 0)
			a := tr.begin("cluster.batch", int64(len(lat)), root.id())
			t0 := time.Now()
			results, err := cl.SearchBatchContext(ctx, pq)
			d := time.Since(t0)
			a.end()
			if err != nil {
				return nil, err
			}
			lat = append(lat, ms(d))
			var ovf int64
			for _, res := range results {
				ovf += res.Overflows
			}
			logf("scan: pass %d: %.1f ms, %d lanes escalated to 32 bits", len(lat), ms(d), ovf)
			c := tr.begin("check", int64(len(lat)), root.id())
			for i := range queries {
				r.ops.note(checkScan(results, i, queries, pairs))
			}
			c.end()
			root.end()
		}
		return lat, nil
	}
	lat, err := passes(nil, r.seconds, scanMinPasses)
	if err != nil {
		return err
	}
	r.scanMetrics(lat, cells, len(queries))
	var tr *tracer
	if r.traced {
		// One traced pass between two untraced ones, the last measured
		// pass and one more, so a linear drift of the host cancels.
		tr = newTracer()
		tlat, err := passes(tr, 0, 1)
		if err != nil {
			return err
		}
		after, err := passes(nil, 0, 1)
		if err != nil {
			return err
		}
		untraced := []float64{lat[len(lat)-1], after[0]}
		r.layer["trace.overhead"] = overhead(tlat, untraced)
		logf("ratio trace.overhead = %.1f ms traced pass / %.1f ms mean of the untraced passes before and after - 1",
			tlat[0], median(untraced))
	}
	if h, m, _ := cl.CacheStats(); h != hits0 || m != misses0 {
		r.ops.note(fmt.Errorf("scan moved the result cache: hits %d->%d, misses %d->%d", hits0, h, misses0, m))
	}
	logf("cold path: cache hits %d, misses %d unchanged by the scan", hits0, misses0)
	if !r.traced {
		return nil
	}
	r.layer["qsched.mean_batch"], r.layer["qsched.cache_hit_share"], r.layer["qsched.join_share"], r.layer["qsched.wait_ms"] = 0, 0, 0, 0
	r.layer["http.cached_p50_ms"], r.layer["http.resp_bytes"], r.layer["loadgen.lag_p99_ms"] = 0, 0, 0
	noRemote(r)
	logf("scan does not touch qsched, http, remote or the load generator: their metrics read 0")
	sample := []*sequence.Sequence{queries[0], queries[4], queries[10]}
	if err := r.probeLayers(ctx, layerInputs{seqs: seqs, queries: sample, cluster: cl, indexPath: path, e2eGCUPS: r.e2e["gcups"]}, tr); err != nil {
		return err
	}
	return r.printLayers(tr)
}

// scanMetrics turns pass latencies into the end-to-end metrics. Every
// pass does the same work, so rates come from the median pass.
func (r *runner) scanMetrics(lat []float64, cells int64, nq int) {
	t := tailOf(lat)
	sec := t.P50 / 1000
	qps := float64(nq) / sec
	r.setE2E("gcups", float64(cells)/sec/1e9, t.N)
	r.setE2E("qps", qps, t.N)
	r.setE2E("latency_p50_ms", t.P50, t.N)
	r.setE2E("latency_p99_ms", t.Value, t.N)
	r.setE2E("slo_rate_rps", closedLoopSLO(qps, t.Value, scanLimit), t.N)
	logf("scan: %d passes of %d queries, pass latency ms %s", len(lat), nq, t)
}

// closedLoopSLO is the closed-loop reading of slo_rate_rps: a closed loop
// never builds a backlog, so the rate it sustains meets the limit when
// its tail latency does; past the limit the rate is scaled down by the
// overshoot.
func closedLoopSLO(rate, tailMS float64, limit time.Duration) float64 {
	if over := tailMS / ms(limit); over > 1 {
		return rate / over
	}
	return rate
}

// scanOracle picks seeded (query, subject) pairs and scores them with the
// oracle. The first pair always has the planted outlier as subject, which
// the engine routes to the long-sequence kernel.
func scanOracle(seed int64, seqs, queries []*sequence.Sequence, outlier int) []scanPair {
	rng := rand.New(rand.NewSource(seed))
	pairs := []scanPair{{q: 0, s: outlier}}
	for len(pairs) <= oraclePairs {
		q, s := rng.Intn(len(queries)), rng.Intn(len(seqs))
		if queries[q].Len()*seqs[s].Len() > 4_000_000 {
			continue
		}
		pairs = append(pairs, scanPair{q: q, s: s})
	}
	for i := range pairs {
		pairs[i].want = oracleScore(queries[pairs[i].q], seqs[pairs[i].s])
	}
	return pairs
}

// checkScan verifies query i of a pass: it is its own top hit, and every
// oracle pair for it scores exactly.
func checkScan(results []*heterosw.ClusterResult, i int, queries []*sequence.Sequence, pairs []scanPair) error {
	res := results[i]
	if len(res.Hits) == 0 || res.Hits[0].ID != queries[i].ID {
		return fmt.Errorf("query %s is not its own top hit", queries[i].ID)
	}
	for _, p := range pairs {
		if p.q == i && res.Scores[p.s] != p.want {
			return fmt.Errorf("query %s subject %d: score %d, oracle %d", queries[i].ID, p.s, res.Scores[p.s], p.want)
		}
	}
	return nil
}

// noRemote zeroes the remote-layer metrics of a workload without shards.
func noRemote(r *runner) {
	for _, n := range []string{"remote.shard_rtt_ms", "remote.wire_ms", "remote.resp_bytes", "remote.attempts_per_request", "remote.over_inprocess"} {
		r.layer[n] = 0
	}
}
