package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"heterosw"
	"heterosw/internal/core"
	"heterosw/internal/device"
	"heterosw/internal/profile"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
	"heterosw/internal/seqdb/index"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/vec"
)

// layerInputs are what the per-layer probes measure on: the workload's own
// database and a sample of its queries.
type layerInputs struct {
	seqs      []*sequence.Sequence // database, caller order
	queries   []*sequence.Sequence // probe sample
	cluster   *heterosw.Cluster    // a local cluster over seqs, set up
	indexPath string               // seqs as a .swdb index
	// e2eGCUPS is the workload's untraced end-to-end rate, the numerator
	// of cluster.efficiency.
	e2eGCUPS float64
}

// probeLayers times each layer below the public API on the same inputs,
// one call at a time on one goroutine so a layer's time can be taken
// minus the layer below it. Ratios are formed within this run.
func (r *runner) probeLayers(ctx context.Context, in layerInputs, tr *tracer) error {
	v, prec, err := core.ParseVariantSpec(heterosw.VariantIntrinsicSP)
	if err != nil {
		return err
	}
	params := core.Params{Variant: v, Prec: prec, GapOpen: 10, GapExtend: 2, Blocked: true}
	xeon := device.Xeon()
	lanes, thr := xeon.Lanes, core.DefaultLongSeqThreshold
	sdb := seqdb.New(in.seqs, true)
	groups, long := sdb.Partition(lanes, thr)
	isLong := make(map[int]bool, len(long))
	var longSeqs, shortSeqs []*sequence.Sequence
	for _, idx := range long {
		isLong[idx] = true
		longSeqs = append(longSeqs, in.seqs[idx])
	}
	for i, s := range in.seqs {
		if !isLong[i] {
			shortSeqs = append(shortSeqs, s)
		}
	}
	// eng searches the whole database; shortEng only the subjects the
	// lane groups hold, so its time minus the kernel's is the engine's own
	// work; longEng only the subjects routed to the long-sequence kernel.
	eng, err := core.NewEngine(sdb, xeon)
	if err != nil {
		return err
	}
	shortEng, longEng := eng, (*core.Engine)(nil)
	if len(longSeqs) > 0 {
		if shortEng, err = core.NewEngine(seqdb.New(shortSeqs, true), xeon); err != nil {
			return err
		}
		if longEng, err = core.NewEngine(seqdb.New(longSeqs, true), xeon); err != nil {
			return err
		}
	}
	serial := core.SearchOptions{Params: params, Workers: 1}
	// Warm the engines' lazy lane packing so no probe pays for it.
	for _, e := range []*core.Engine{eng, shortEng, longEng} {
		if e == nil {
			continue
		}
		if _, err := e.Search(in.queries[0], serial); err != nil {
			return err
		}
	}

	var (
		groupStats                      core.Stats
		groupT, longT, engT, modelT     time.Duration
		shortT                          time.Duration
		longCells, engCells, intraCells int64
		nativeT, portableT              time.Duration
		dispT, parEngT                  time.Duration
		alignT, evalueT                 []float64
	)
	buf := core.NewBuffers(lanes)
	for qi, q := range in.queries {
		root := tr.begin("probe", int64(qi), 0)
		qp := profile.NewQuery(q.Residues, submat.BLOSUM62)

		// Kernel (native and portable), long path and engine are timed
		// as the best of probeReps runs each, so the engine's self time is
		// not lost in run-to-run noise of the layers below it.
		a := tr.begin("kernel", int64(qi), root.id())
		var st core.Stats
		kernel := func() error {
			st = core.Stats{}
			for _, g := range groups {
				_, s := core.AlignGroup(qp, g, params, buf)
				st.Add(s)
			}
			return nil
		}
		d, _ := best(kernel) // AlignGroup cannot fail
		a.end()
		groupStats.Add(st)
		groupT += d
		if qi == 0 {
			nativeT = d
			prev := vec.ForcePortable(true)
			portableT, _ = best(kernel)
			vec.ForcePortable(prev)
		}

		if longEng != nil {
			a = tr.begin("kernel.long", int64(qi), root.id())
			var res *core.Result
			d, err := best(func() (err error) { res, err = longEng.Search(q, serial); return err })
			a.end()
			if err != nil {
				return fmt.Errorf("long-subject engine search: %v", err)
			}
			longT += d
			longCells += res.Stats.Cells
		}

		a = tr.begin("engine", int64(qi), root.id())
		var res *core.Result
		d, err := best(func() (err error) { res, err = eng.Search(q, serial); return err })
		a.end()
		if err != nil {
			return fmt.Errorf("engine search: %v", err)
		}
		engT += d
		engCells += res.Stats.Cells
		intraCells += res.Stats.IntraCells
		d, err = best(func() error { _, err := shortEng.Search(q, serial); return err })
		if err != nil {
			return fmt.Errorf("lane-group engine search: %v", err)
		}
		shortT += d

		a = tr.begin("model", int64(qi), root.id())
		modelT += modelCost(xeon, params.KernelClass(), q.Len(), groups, longSeqs)
		a.end()

		// dispatch over engine: both at their default parallelism.
		pq := pub(q)
		a = tr.begin("dispatch", int64(qi), root.id())
		var plain *heterosw.ClusterResult
		scoreOnly, err := best(func() (err error) { plain, err = in.cluster.SearchContext(ctx, pq); return err })
		a.end()
		if err != nil {
			return fmt.Errorf("cluster search: %v", err)
		}
		dispT += scoreOnly
		d, err = best(func() error { _, err := eng.Search(q, core.SearchOptions{Params: params}); return err })
		if err != nil {
			return fmt.Errorf("parallel engine search: %v", err)
		}
		parEngT += d

		// The aligned report's cost is its search minus the score-only
		// search of the same query.
		a = tr.begin("report", int64(qi), root.id())
		aligned, err := best(func() error {
			_, err := in.cluster.SearchContext(ctx, pq, heterosw.ReportOptions{Alignments: true, TopK: 10})
			return err
		})
		if err != nil {
			return fmt.Errorf("aligned cluster search: %v", err)
		}
		alignT = append(alignT, ms(aligned-scoreOnly))
		t0 := time.Now()
		if _, err := plain.FitSignificance(0); err != nil {
			return err
		}
		evalueT = append(evalueT, ms(time.Since(t0)))
		a.end()
		root.end()
	}
	n := float64(len(in.queries))
	kernelRate := ratio(float64(groupStats.Cells), groupT.Seconds()) / 1e9
	r.layer["kernel.group_gcups"] = kernelRate
	r.layer["kernel.padding_ratio"] = ratio(float64(groupStats.PaddedCells), float64(groupStats.Cells))
	r.layer["kernel.escalation_ratio"] = ratio(float64(groupStats.OverflowCells), float64(groupStats.Cells))
	r.layer["kernel.native_over_portable"] = ratio(portableT.Seconds(), nativeT.Seconds())
	r.layer["kernel.long_gcups"] = ratio(float64(longCells), longT.Seconds()) / 1e9
	r.layer["kernel.long_cell_share"] = ratio(float64(intraCells), float64(engCells))
	r.layer["kernel.long_time_share"] = ratio(longT.Seconds(), engT.Seconds())
	r.layer["engine.gcups"] = ratio(float64(engCells), engT.Seconds()) / 1e9
	r.layer["engine.self_ms"] = ms(shortT-groupT) / n
	r.layer["model.ms_per_query"] = ms(modelT) / n
	r.layer["dispatch.over_engine"] = ratio(dispT.Seconds(), parEngT.Seconds())
	capacity := float64(runtime.NumCPU()) * kernelRate
	r.layer["cluster.efficiency"] = ratio(in.e2eGCUPS, capacity)
	r.layer["report.align_ms"] = median(alignT)
	r.layer["report.evalue_ms"] = median(evalueT)

	logf("kernel: %d groups, %d long subjects; groups %.3f GCUPS on one core, native %.1f ms vs portable %.1f ms",
		len(groups), len(long), kernelRate, ms(nativeT), ms(portableT))
	logf("engine: %.1f ms per query on one core; over the lane groups alone %.1f = kernel %.1f + self %.1f; long subjects alone %.1f",
		ms(engT)/n, ms(shortT)/n, ms(groupT)/n, ms(shortT-groupT)/n, ms(longT)/n)
	logf("ratio dispatch.over_engine = %.1f ms cluster search / %.1f ms engine search", ms(dispT)/n, ms(parEngT)/n)
	logf("ratio cluster.efficiency = %.4f GCUPS end to end / (%d cores x %.4f GCUPS kernel)",
		in.e2eGCUPS, runtime.NumCPU(), kernelRate)
	logf("ratio kernel.native_over_portable = %.1f ms portable / %.1f ms native (%s)", ms(portableT), ms(nativeT), vec.Info().Backend)

	return r.probeStorage(in.indexPath, lanes, thr)
}

// probeReps is how many times best repeats a layer measurement.
const probeReps = 3

// best returns the shortest of probeReps timed runs of fn, or fn's first
// error.
func best(fn func() error) (time.Duration, error) {
	var min time.Duration
	for i := 0; i < probeReps; i++ {
		d, err := timed(fn)
		if err != nil {
			return 0, err
		}
		if i == 0 || d < min {
			min = d
		}
	}
	return min, nil
}

// modelCost repeats the device-model work a live query pays per backend:
// a GroupCost per lane group and long subject, then sched.Simulate.
func modelCost(m *device.Model, class device.KernelClass, qlen int, groups []*seqdb.LaneGroup, long []*sequence.Sequence) time.Duration {
	pol, _ := sched.ParsePolicy("dynamic")
	threads := m.MaxThreads()
	t0 := time.Now()
	costs := make([]float64, 0, len(groups)+len(long))
	for _, g := range groups {
		costs = append(costs, m.GroupCost(class, qlen, device.Shape{Width: g.Width, Lanes: g.Lanes, Residues: g.Residues}, threads, 0))
	}
	for _, s := range long {
		costs = append(costs, m.GroupCost(class, qlen, device.Shape{Width: s.Len(), Lanes: 1, Residues: int64(s.Len()), Intra: true}, threads, 0))
	}
	sched.Simulate(costs, threads, pol, 1, m.DispatchCycles)
	return time.Since(t0)
}

// probeStorage times lane partitioning of the opened index and a 2-way
// split. Workloads that split as part of their set-up report their own
// split time instead.
func (r *runner) probeStorage(path string, lanes, thr int) error {
	var part, split []float64
	for i := 0; i < 3; i++ {
		ix, err := index.Open(path)
		if err != nil {
			return err
		}
		t0 := time.Now()
		ix.Database().Partition(lanes, thr)
		part = append(part, ms(time.Since(t0)))
		if _, ok := r.layer["storage.split_ms"]; ok {
			continue
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("probe-split-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := heterosw.SplitIndexFile(path, 2, dir, "probe"); err != nil {
			return err
		}
		split = append(split, ms(time.Since(t0)))
	}
	r.layer["storage.partition_ms"] = median(part)
	if len(split) > 0 {
		r.layer["storage.split_ms"] = median(split)
	}
	return nil
}
