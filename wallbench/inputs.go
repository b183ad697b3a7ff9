package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"heterosw"
	"heterosw/internal/alphabet"
	"heterosw/internal/datagen"
	"heterosw/internal/seqdb"
	"heterosw/internal/seqdb/index"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
)

// Every search in the benchmark uses the library's defaults: intrinsic-SP
// kernels with blocking, BLOSUM62, gap open 10 and extend 2. The oracle
// scores with the same parameters.
var oracleScoring = swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}

// genSeqs draws n protein sequences with Swiss-Prot's residue composition
// and a log-normal length distribution, deterministically in seed.
func genSeqs(prefix string, n int, seed int64, meanLen, sigma float64, maxLen int) []*sequence.Sequence {
	seqs := datagen.Generate(datagen.Config{Sequences: n, Seed: seed, MeanLen: meanLen, SigmaLog: sigma, MaxLen: maxLen})
	for i, s := range seqs {
		s.ID = fmt.Sprintf("%s%06d", prefix, i)
	}
	return seqs
}

// reseed redraws every residue of seqs from seed, keeping their IDs and
// lengths. Workloads fix their length profile and let the seed pick the
// content, so the work per run does not change with the seed.
func reseed(seqs []*sequence.Sequence, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pool := residuePool(seed)
	for _, s := range seqs {
		for i := range s.Residues {
			s.Residues[i] = pool[rng.Intn(len(pool))]
		}
	}
}

// homolog returns a window of src of about length residues with a share
// of them substituted from pool, so a query has real but inexact hits.
func homolog(rng *rand.Rand, id string, src *sequence.Sequence, length int, subst float64, pool []alphabet.Code) *sequence.Sequence {
	if length > src.Len() {
		length = src.Len()
	}
	from := rng.Intn(src.Len() - length + 1)
	res := append([]alphabet.Code(nil), src.Residues[from:from+length]...)
	for i := range res {
		if rng.Float64() < subst {
			res[i] = pool[rng.Intn(len(pool))]
		}
	}
	return &sequence.Sequence{ID: id, Residues: res}
}

// residuePool is a background-composition residue stream for substitutions.
func residuePool(seed int64) []alphabet.Code {
	return genSeqs("pool", 1, seed, 4096, 1e-9, 4096)[0].Residues
}

// writeIndex writes seqs (in caller order) as a length-sorted .swdb index,
// exactly as heterosw.NewDatabase followed by WriteIndexFile would.
func writeIndex(path string, seqs []*sequence.Sequence) error {
	_, err := index.WriteFile(path, seqdb.New(seqs, true))
	return err
}

func pub(s *sequence.Sequence) heterosw.Sequence { return heterosw.NewSequence(s.ID, s.String()) }

func oracleScore(q, s *sequence.Sequence) int {
	return swalign.Score(q.Residues, s.Residues, oracleScoring)
}

func residues(seqs []*sequence.Sequence) int64 {
	var n int64
	for _, s := range seqs {
		n += int64(s.Len())
	}
	return n
}

// parallel calls fn(i) for every i below n from workers goroutines.
func parallel(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// timed returns how long fn took.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}
