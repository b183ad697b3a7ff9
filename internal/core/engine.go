package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"heterosw/internal/alphabet"
	"heterosw/internal/device"
	"heterosw/internal/offload"
	"heterosw/internal/profile"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
)

// Engine is a single-device Smith-Waterman database-search engine: the
// paper's Algorithm 1. It owns a database (already pre-processed per step
// 2), a device model for simulated timing, and cached lane-group packings.
// An Engine is safe for concurrent Search calls.
type Engine struct {
	db  *seqdb.Database
	dev *device.Model

	mu    sync.Mutex // guards parts
	parts map[partKey]*partition
}

type partKey struct {
	lanes, longThreshold int
}

// partition is a cached work decomposition: inter-task lane groups plus
// the long sequences routed to the intra-task kernel. Work item i is
// groups[i] for i < len(groups), else long[i-len(groups)].
type partition struct {
	groups []*seqdb.LaneGroup
	long   []int // database indices (caller order)
	// order is the execution order of the work items: the long subjects
	// first, longest first, then the lane groups. The database sorts
	// ascending, so item order would hand the longest subject out last
	// and leave the other workers idle while one finishes it.
	order []int
}

// NewEngine builds an engine over a database for a device model.
func NewEngine(db *seqdb.Database, dev *device.Model) (*Engine, error) {
	if db == nil {
		return nil, fmt.Errorf("core: nil database")
	}
	if dev == nil {
		return nil, fmt.Errorf("core: nil device model")
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	return &Engine{db: db, dev: dev, parts: make(map[partKey]*partition)}, nil
}

// DB returns the engine's database.
func (e *Engine) DB() *seqdb.Database { return e.db }

// Device returns the engine's device model.
func (e *Engine) Device() *device.Model { return e.dev }

// partitionFor returns (and caches) the work decomposition for a lane
// width and long-sequence threshold.
func (e *Engine) partitionFor(lanes, longThreshold int) *partition {
	key := partKey{lanes, longThreshold}
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.parts[key]; ok {
		return p
	}
	groups, long := e.db.Partition(lanes, longThreshold)
	order := make([]int, 0, len(groups)+len(long))
	for k := range long {
		order = append(order, len(groups)+k)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return e.db.Seq(long[order[a]-len(groups)]).Len() > e.db.Seq(long[order[b]-len(groups)]).Len()
	})
	for i := range groups {
		order = append(order, i)
	}
	p := &partition{groups: groups, long: long, order: order}
	e.parts[key] = p
	return p
}

// SearchOptions configures one database search.
type SearchOptions struct {
	// Params selects the kernel variant, gap penalties and blocking.
	Params
	// Matrix is the substitution matrix (BLOSUM62 when nil, as in the
	// paper).
	Matrix *submat.Matrix
	// Threads is the simulated device thread count (device maximum when
	// 0).
	Threads int
	// Schedule is the OpenMP scheduling policy for the group loop; the
	// paper found dynamic to perform best.
	Schedule sched.Policy
	// ChunkSize is the scheduling chunk (1 when 0).
	ChunkSize int
	// Workers caps real host goroutines for the functional execution
	// (GOMAXPROCS when 0). It does not affect simulated time.
	Workers int
	// LongSeqThreshold routes database sequences longer than this to the
	// intra-task striped kernel (see DefaultLongSeqThreshold). 0 selects
	// the default for vector variants; negative disables routing.
	LongSeqThreshold int
	// TopK truncates the hit list (all hits when 0).
	TopK int
}

// matrixFor resolves the substitution matrix against a database alphabet:
// an explicit Matrix wins, otherwise the alphabet's conventional default
// (BLOSUM62 for protein as in the paper, the blastn +2/-3 scheme for DNA).
func (o SearchOptions) matrixFor(alpha *alphabet.Alphabet) *submat.Matrix {
	if o.Matrix != nil {
		return o.Matrix
	}
	if alpha == alphabet.DNA {
		return submat.NUC
	}
	return submat.BLOSUM62
}

func (o SearchOptions) kernelClass() device.KernelClass {
	return o.Params.KernelClass()
}

// Hit is one database match.
type Hit struct {
	// SeqIndex is the database index (caller order) of the subject.
	SeqIndex int
	// ID is the subject's FASTA identifier.
	ID string
	// Score is the optimal local alignment score.
	Score int32
}

// Result reports one search: the score list of step 4, plus functional and
// simulated performance accounting.
type Result struct {
	// Hits is sorted by descending score (ties by database order) and
	// truncated to TopK when requested.
	Hits []Hit
	// Scores holds the raw score of every database sequence, indexed by
	// caller order, regardless of TopK.
	Scores []int32
	// Stats aggregates kernel operation counts.
	Stats Stats
	// Threads is the simulated thread count used.
	Threads int
	// SimSeconds is the simulated wall time on the device model,
	// including offload transfers for coprocessors; SimGCUPS is
	// Stats.Cells/SimSeconds.
	SimSeconds float64
	SimGCUPS   float64
	// Imbalance is the simulated schedule's load imbalance.
	Imbalance float64
	// WallSeconds and WallGCUPS report the real execution of the pure-Go
	// kernels on the host, for transparency.
	WallSeconds float64
	WallGCUPS   float64
}

// Search performs Algorithm 1: alignments of the query against every
// database sequence in parallel, returning sorted similarity scores with
// functional and simulated timing.
func (e *Engine) Search(query *sequence.Sequence, opt SearchOptions) (*Result, error) {
	if query == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	if err := opt.Params.Validate(); err != nil {
		return nil, err
	}
	threads := opt.Threads
	if threads <= 0 {
		threads = e.dev.MaxThreads()
	}
	if threads > e.dev.MaxThreads() {
		return nil, fmt.Errorf("core: %d threads exceeds %s's %d hardware threads",
			threads, e.dev.Short, e.dev.MaxThreads())
	}
	alpha := e.db.Alphabet()
	matrix := opt.matrixFor(alpha)
	if matrix.Alphabet() != alpha {
		return nil, fmt.Errorf("core: %s matrix %s against a %s database",
			matrix.Alphabet().Name(), matrix.Name(), alpha.Name())
	}
	if qa := query.Alphabet(); qa != alpha {
		return nil, fmt.Errorf("core: %s query %s against a %s database",
			qa.Name(), query.ID, alpha.Name())
	}
	qp := profile.NewQuery(query.Residues, matrix)
	// The 8-bit first pass doubles the lanes per vector word; it needs the
	// biased byte profiles, so a matrix whose score range exceeds a byte
	// silently starts the ladder at 16 bits instead.
	prec8 := opt.Prec == Prec8 && opt.Variant.Vec() == VecIntrinsic && qp.Bias8Viable()
	lanes := e.dev.Lanes
	switch {
	case opt.Variant.Vec() == VecNone:
		lanes = 1
	case prec8:
		lanes = e.dev.ByteLanes()
	}
	longThr := opt.LongSeqThreshold
	switch {
	case longThr < 0 || opt.Variant.Vec() == VecNone:
		// The scalar kernel has no lane-occupancy problem; every
		// sequence already is its own chunk.
		longThr = 0
	case longThr == 0:
		longThr = DefaultLongSeqThreshold
	}
	part := e.partitionFor(lanes, longThr)
	groups, long := part.groups, part.long
	class := opt.kernelClass()
	class.EightBit = prec8
	m := qp.Len()

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Per-worker scratch; sized lazily inside the kernels.
	bufs := make([]*Buffers, workers)
	statsPer := make([]Stats, workers)
	items := len(groups) + len(long)
	costs := make([]float64, items)
	scores := make([]int32, e.db.Len())

	// The striped profile of the query, shared read only by the workers
	// that run long subjects.
	var sprof []int16
	if len(long) > 0 {
		sprof = stripedProfile(qp)
	}
	// Items run in part.order; costs stays in item order, so the
	// simulated schedule does not depend on the execution order.
	start := time.Now()
	sched.Parallel(items, workers, func(k, worker int) {
		i := part.order[k]
		if bufs[worker] == nil {
			bufs[worker] = NewBuffers(lanes)
		}
		if i < len(groups) {
			g := groups[i]
			got, st := AlignGroup(qp, g, opt.Params, bufs[worker])
			statsPer[worker].Add(st)
			for l, idx := range g.SeqIdx {
				if idx >= 0 {
					scores[idx] = got[l]
				}
			}
			shape := device.Shape{Width: g.Width, Lanes: g.Lanes, Residues: g.Residues}
			costs[i] = e.dev.GroupCost(class, m, shape, threads, st.OverflowCells)
			return
		}
		// Long sequences: intra-task striped kernel, one chunk per
		// sequence, at every first-pass precision.
		idx := long[i-len(groups)]
		subject := e.db.Seq(idx).Residues
		cells := int64(m) * int64(len(subject))
		st := Stats{
			Cells: cells, PaddedCells: cells, IntraCells: cells,
			Columns: int64(len(subject)), Alignments: 1, Groups: 1,
		}
		scores[idx] = alignPairLong(qp, sprof, subject, opt.Params, bufs[worker], &st)
		statsPer[worker].Add(st)
		shape := device.Shape{Width: len(subject), Lanes: 1, Residues: int64(len(subject)), Intra: true}
		costs[i] = e.dev.GroupCost(class, m, shape, threads, 0)
	})
	wall := time.Since(start).Seconds()

	var stats Stats
	for i := range statsPer {
		stats.Add(statsPer[i])
	}
	sim := sched.Simulate(costs, threads, opt.Schedule, opt.ChunkSize, e.dev.DispatchCycles)
	seconds := e.dev.Seconds(sim.Makespan, threads)
	if e.dev.OffloadRequired {
		in := offload.QueryBytes(m) + offload.DatabaseBytes(e.db.Residues(), e.db.Len())
		out := offload.ScoreBytes(e.db.Len())
		seconds = offload.RegionSeconds(e.dev, in, out, seconds)
	}
	// Step 4: serial host-side sort of the score list.
	seconds += device.HostSortSeconds(e.db.Len())

	res := &Result{
		Scores:      scores,
		Stats:       stats,
		Threads:     threads,
		SimSeconds:  seconds,
		Imbalance:   sim.Imbalance(),
		WallSeconds: wall,
	}
	if seconds > 0 {
		res.SimGCUPS = float64(stats.Cells) / seconds / 1e9
	}
	if wall > 0 {
		res.WallGCUPS = float64(stats.Cells) / wall / 1e9
	}
	res.Hits = e.sortHits(scores, opt.TopK)
	return res, nil
}

// sortHits implements step 4: similarity scores in descending order.
func (e *Engine) sortHits(scores []int32, topK int) []Hit {
	hits := make([]Hit, len(scores))
	for i, s := range scores {
		hits[i] = Hit{SeqIndex: i, ID: e.db.Seq(i).ID, Score: s}
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].Score > hits[b].Score })
	if topK > 0 && topK < len(hits) {
		hits = hits[:topK]
	}
	return hits
}
