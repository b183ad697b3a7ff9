package heterosw

// Benchmark harness: one benchmark per figure/table of the paper's
// evaluation (regenerating its series through the simulated devices and
// reporting the headline number as a custom metric), plus functional
// microbenchmarks of every kernel variant measuring real pure-Go cell
// throughput on the host.
//
// Figure benchmarks run the simulation at 1/20 of Swiss-Prot scale per
// iteration to keep -bench runs quick; cmd/swbench regenerates the same
// figures at full scale and prints the complete series.

import (
	"fmt"
	"math/rand"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/core"
	"heterosw/internal/datagen"
	"heterosw/internal/device"
	"heterosw/internal/figures"
	"heterosw/internal/profile"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
	"heterosw/internal/vec"
)

const benchFigureScale = 0.05

// benchWorkload is shared by the figure benchmarks (building it is cheap
// but not free, and identical across iterations).
var benchWorkload = figures.NewWorkload(benchFigureScale)

func reportSeriesMax(b *testing.B, fig *figures.Figure, label string) {
	b.Helper()
	for _, s := range fig.Series {
		if s.Label != label {
			continue
		}
		best := 0.0
		for _, y := range s.Y {
			if y > best {
				best = y
			}
		}
		b.ReportMetric(best, "GCUPS")
		return
	}
	b.Fatalf("series %q not found", label)
}

// BenchmarkFig03XeonThreadScaling regenerates Figure 3 (Xeon, 6 variants,
// threads 1..32) and reports the intrinsic-SP peak.
func BenchmarkFig03XeonThreadScaling(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig3(benchWorkload)
	}
	reportSeriesMax(b, fig, "intrinsic-SP")
}

// BenchmarkFig04XeonQueryLength regenerates Figure 4 (Xeon @32T over the
// 20 query lengths).
func BenchmarkFig04XeonQueryLength(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig4(benchWorkload)
	}
	reportSeriesMax(b, fig, "intrinsic-SP")
}

// BenchmarkFig05PhiThreadScaling regenerates Figure 5 (Phi, 6 variants,
// threads 30..240).
func BenchmarkFig05PhiThreadScaling(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig5(benchWorkload)
	}
	reportSeriesMax(b, fig, "intrinsic-SP")
}

// BenchmarkFig06PhiQueryLength regenerates Figure 6 (Phi @240T over the 20
// query lengths).
func BenchmarkFig06PhiQueryLength(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig6(benchWorkload)
	}
	reportSeriesMax(b, fig, "intrinsic-SP")
}

// BenchmarkFig07Blocking regenerates Figure 7 (blocking vs non-blocking on
// both devices).
func BenchmarkFig07Blocking(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig7(benchWorkload)
	}
	reportSeriesMax(b, fig, "phi blocking")
}

// BenchmarkFig08HeteroSplit regenerates Figure 8 (the CPU/Phi workload-
// distribution sweep) and reports the hybrid peak.
func BenchmarkFig08HeteroSplit(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig8(benchWorkload)
	}
	reportSeriesMax(b, fig, "hetero intrinsic-SP")
}

// BenchmarkTableEfficiency regenerates the Section V.C.1 efficiency table
// and reports intrinsic-SP efficiency at 16 threads (paper: 0.88).
func BenchmarkTableEfficiency(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Efficiency(benchWorkload)
	}
	for _, s := range fig.Series {
		if s.Label == "intrinsic-SP" {
			for i, x := range s.X {
				if x == 16 {
					b.ReportMetric(s.Y[i], "efficiency@16T")
				}
			}
		}
	}
}

// BenchmarkAblationSchedule regenerates the scheduling-policy ablation
// (Section IV: dynamic > guided > static).
func BenchmarkAblationSchedule(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.SchedulePolicies(benchWorkload)
	}
	reportSeriesMax(b, fig, "sorted db")
}

// BenchmarkAblationPower regenerates the GCUPS/W extension of Figure 8.
func BenchmarkAblationPower(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Power(benchWorkload)
	}
	reportSeriesMax(b, fig, "hetero GCUPS/W")
}

// ---- Functional kernel microbenchmarks (real wall-clock throughput) ----

type kernelBench struct {
	qp     *profile.Query
	groups []*seqdb.LaneGroup
	long   []int
	db     *seqdb.Database
	params core.Params
	bufs   *core.Buffers
	cells  int64
}

func newKernelBench(b *testing.B, variant core.Variant, lanes int, blocked bool) *kernelBench {
	b.Helper()
	seqs := datagen.Generate(datagen.Config{Sequences: 256, Seed: 99, MeanLen: 355, MaxLen: 2000})
	db := seqdb.New(seqs, true)
	groups, long := db.Partition(lanes, 0)
	queries := datagen.GenerateQueries(7)
	q := profile.NewQuery(queries[4].Residues, submat.BLOSUM62) // 464 aa
	kb := &kernelBench{
		qp:     q,
		groups: groups,
		long:   long,
		db:     db,
		params: core.Params{Variant: variant, GapOpen: 10, GapExtend: 2, Blocked: blocked},
		bufs:   core.NewBuffers(lanes),
		cells:  int64(q.Len()) * db.Residues(),
	}
	return kb
}

func (kb *kernelBench) run(b *testing.B) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range kb.groups {
			core.AlignGroup(kb.qp, g, kb.params, kb.bufs)
		}
	}
	b.StopTimer()
	megaCells := float64(kb.cells) / 1e6
	b.ReportMetric(megaCells*float64(b.N)/b.Elapsed().Seconds(), "Mcells/s")
}

func BenchmarkKernelNoVec(b *testing.B)       { newKernelBench(b, core.NoVecSP, 1, false).run(b) }
func BenchmarkKernelGuidedQP(b *testing.B)    { newKernelBench(b, core.GuidedQP, 16, false).run(b) }
func BenchmarkKernelGuidedSP(b *testing.B)    { newKernelBench(b, core.GuidedSP, 16, false).run(b) }
func BenchmarkKernelIntrinsicQP(b *testing.B) { newKernelBench(b, core.IntrinsicQP, 16, false).run(b) }
func BenchmarkKernelIntrinsicSP(b *testing.B) { newKernelBench(b, core.IntrinsicSP, 16, false).run(b) }
func BenchmarkKernelIntrinsicSP32(b *testing.B) {
	newKernelBench(b, core.IntrinsicSP, 32, false).run(b)
}
func BenchmarkKernelIntrinsicSPBlocked(b *testing.B) {
	newKernelBench(b, core.IntrinsicSP, 16, true).run(b)
}

// Portable-backend twins of the intrinsic microbenchmarks: identical
// workloads with internal/vec's pure-Go loops forced. On an AVX2 host the
// pair measures the native backend's speedup directly; committed side by
// side in the benchmark artifact they let the wall-GCUPS gate catch a
// silently lost native backend (mis-detected CPU feature, broken
// dispatch) rather than only gross portable-loop regressions.
func benchKernelPortable(b *testing.B, variant core.Variant, lanes int) {
	b.Helper()
	kb := newKernelBench(b, variant, lanes, false)
	prev := vec.ForcePortable(true)
	defer vec.ForcePortable(prev)
	kb.run(b)
}

func BenchmarkKernelIntrinsicSPPortable(b *testing.B) { benchKernelPortable(b, core.IntrinsicSP, 16) }
func BenchmarkKernelIntrinsicQPPortable(b *testing.B) { benchKernelPortable(b, core.IntrinsicQP, 16) }

// Precision-ladder microbenchmark: the 8-bit first pass vs the 16-bit
// pass over short-sequence lane groups — the packing the ladder exists
// for, since a length-sorted protein database is dominated by subjects
// whose scores provably fit a byte. Wall Mcells/s reports the emulation's
// host throughput; sim-GCUPS is the deterministic device-model number the
// regression gate compares (byte lanes halve the group count per residue,
// so the model shows the ~2x the real hardware trick delivers).
func benchLadder(b *testing.B, prec core.Precision) {
	seqs := datagen.Generate(datagen.Config{Sequences: 512, Seed: 42, MeanLen: 120, MaxLen: 240})
	db := seqdb.New(seqs, true)
	dev := device.Xeon()
	params := core.Params{Variant: core.IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: true, Prec: prec}
	lanes := dev.Lanes
	if prec == core.Prec8 {
		lanes = dev.ByteLanes()
	}
	groups, _ := db.Partition(lanes, 0)
	q := profile.NewQuery(datagen.GenerateQueries(7)[2].Residues, submat.BLOSUM62) // 222 aa
	bufs := core.NewBuffers(lanes)
	cells := int64(q.Len()) * db.Residues()
	threads := dev.MaxThreads()
	class := params.KernelClass()
	var cycles float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, g := range groups {
			_, st := core.AlignGroup(q, g, params, bufs)
			shape := device.Shape{Width: g.Width, Lanes: g.Lanes, Residues: g.Residues}
			cycles += dev.GroupCost(class, q.Len(), shape, threads, st.OverflowCells)
		}
	}
	b.StopTimer()
	simSeconds := cycles / (float64(threads) * dev.ThreadRate(threads))
	b.ReportMetric(float64(cells)/simSeconds/1e9, "sim-GCUPS")
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

func BenchmarkKernelLadderShort8(b *testing.B)  { benchLadder(b, core.Prec8) }
func BenchmarkKernelLadderShort16(b *testing.B) { benchLadder(b, core.Prec16) }

// BenchmarkKernelDNANuc is the nucleotide twin of the kernel
// microbenchmarks: intrinsic-SP over a seeded random DNA database under
// the NUC +2/-3 match/mismatch matrix. The 15-letter alphabet shrinks the
// query profile but the inner loops are identical, so nucleotide Mcells/s
// should track the protein number; sim-GCUPS is the deterministic
// device-model figure the regression gate compares.
func BenchmarkKernelDNANuc(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	const bases = "ACGT"
	randDNA := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = bases[rng.Intn(4)]
		}
		return s
	}
	seqs := make([]*sequence.Sequence, 256)
	for i := range seqs {
		seqs[i] = sequence.NewAlpha(fmt.Sprintf("d%03d", i), randDNA(100+rng.Intn(600)), alphabet.DNA)
	}
	db := seqdb.New(seqs, true)
	dev := device.Xeon()
	lanes := dev.Lanes
	groups, _ := db.Partition(lanes, 0)
	q := profile.NewQuery(sequence.NewAlpha("q", randDNA(400), alphabet.DNA).Residues, submat.NUC)
	params := core.Params{Variant: core.IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: true}
	bufs := core.NewBuffers(lanes)
	cells := int64(q.Len()) * db.Residues()
	threads := dev.MaxThreads()
	class := params.KernelClass()
	var cycles float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, g := range groups {
			_, st := core.AlignGroup(q, g, params, bufs)
			shape := device.Shape{Width: g.Width, Lanes: g.Lanes, Residues: g.Residues}
			cycles += dev.GroupCost(class, q.Len(), shape, threads, st.OverflowCells)
		}
	}
	b.StopTimer()
	simSeconds := cycles / (float64(threads) * dev.ThreadRate(threads))
	b.ReportMetric(float64(cells)/simSeconds/1e9, "sim-GCUPS")
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

// BenchmarkIntraStriped measures the striped long-sequence kernel on one
// long pair through the engine: an 8000-residue subject routed past the
// long-sequence threshold against a 1000-residue query.
func BenchmarkIntraStriped(b *testing.B) {
	seqs := datagen.Generate(datagen.Config{Sequences: 1, Seed: 17, MeanLen: 8000, SigmaLog: 0.01, MaxLen: 9000})
	subject := seqs[0]
	q := profile.NewQuery(datagen.GenerateQueries(7)[9].Residues, submat.BLOSUM62) // 1000 aa
	db := seqdb.New([]*sequence.Sequence{subject}, true)
	eng, err := core.NewEngine(db, device.Xeon())
	if err != nil {
		b.Fatal(err)
	}
	opt := core.SearchOptions{
		Params: core.Params{Variant: core.IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: true},
	}
	cells := float64(q.Len()) * float64(subject.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(&sequence.Sequence{ID: "q", Residues: q.Seq}, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

// BenchmarkSearchEndToEnd measures the full parallel functional search
// (Algorithm 1) on the host.
func BenchmarkSearchEndToEnd(b *testing.B) {
	db, queries := SyntheticSwissProt(0.002, true)
	q := queries[4]
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = db.Search(q, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.WallGCUPS*1000, "wall-McUPS")
	b.ReportMetric(res.SimGCUPS, "sim-GCUPS")
}

// BenchmarkSearchHeteroEndToEnd measures the full Algorithm 2 execution.
func BenchmarkSearchHeteroEndToEnd(b *testing.B) {
	db, queries := SyntheticSwissProt(0.002, true)
	q := queries[4]
	b.ResetTimer()
	var res *HeteroResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = db.SearchHetero(q, HeteroOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.SimGCUPS, "sim-GCUPS")
}

// BenchmarkPairwiseAlign measures the reference full-matrix alignment with
// traceback.
func BenchmarkPairwiseAlign(b *testing.B) {
	qs := datagen.GenerateQueries(3)
	a := qs[4].Residues // 464
	c := qs[2].Residues // 222
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swalign.Align(a, c, sc)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(a))*float64(len(c))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

// BenchmarkPairwiseBanded measures banded rescoring (the seed-and-extend
// primitive).
func BenchmarkPairwiseBanded(b *testing.B) {
	qs := datagen.GenerateQueries(3)
	a := qs[4].Residues
	c := qs[9].Residues // 1000
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swalign.ScoreBanded(a, c, sc, 0, 16)
	}
}

// BenchmarkScheduleSimulation measures the deterministic makespan
// simulator that replays OpenMP policies over half a million chunks.
func BenchmarkScheduleSimulation(b *testing.B) {
	lengths := datagen.Lengths(datagen.SwissProtConfig(1.0))
	shapes := seqdb.PackShapes(lengths, 32, true, core.DefaultLongSeqThreshold)
	phi := device.Phi()
	coeffs := phi.Coeffs(device.KernelClass{Blocked: true}, 1000, 32, 240)
	intra := phi.IntraCoeffs(1000)
	costs := make([]float64, len(shapes))
	for i, s := range shapes {
		if s.Intra {
			costs[i] = intra.Cost(s)
		} else {
			costs[i] = coeffs.Cost(s)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Simulate(costs, 240, sched.Dynamic, 1, phi.DispatchCycles)
	}
}

// BenchmarkProfileBuild measures score-profile construction, the per-column
// cost the SP variants amortise over the query length.
func BenchmarkProfileBuild(b *testing.B) {
	q := profile.NewQuery(datagen.GenerateQueries(3)[0].Residues, submat.BLOSUM62)
	sr := profile.NewScoreRows(32)
	residues := make([]uint8, 32)
	for i := range residues {
		residues[i] = uint8(i % 24)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.Build(q, residues)
	}
}

// BenchmarkFASTAWrite measures database serialisation throughput.
func BenchmarkFASTAWrite(b *testing.B) {
	seqs := datagen.Generate(datagen.Config{Sequences: 200, Seed: 5})
	b.ResetTimer()
	var sink countingWriter
	for i := 0; i < b.N; i++ {
		if err := sequence.WriteFASTA(&sink, seqs, 60); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(sink.n / int64(b.N))
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }
