package core

import (
	"heterosw/internal/alphabet"
	"heterosw/internal/profile"
	"heterosw/internal/vec"
)

// DefaultLongSeqThreshold is the database-sequence length above which the
// engine switches from the inter-task lane kernel to the intra-task
// striped kernel. The value follows CUDASW++ [14] (cited by the paper for
// its database pre-processing), which routes subjects longer than 3072
// residues to an intra-task path.
//
// Rationale: in the inter-task scheme one database sequence occupies one
// SIMD lane for its whole length, so a 35,213-residue Swiss-Prot entry
// pins a lane (and its scheduler chunk) for N columns regardless of thread
// count — at 240 threads that single chunk would dominate the makespan.
// The paper is silent on this; the mature implementations in its
// reference list handle it with an intra-task kernel, and so does this
// engine.
const DefaultLongSeqThreshold = 3072

// stripes is the stripe count t = ceil(m/16) of a query of length m.
func stripes(m int) int { return (m + vec.StripedLanes - 1) / vec.StripedLanes }

// stripedProfile builds the striped query profile: for every residue
// index e, t = stripes(m) stripe vectors of V(e, q[k*t+i]) with padding
// positions scoring profile.PadScore. Layout: prof[((e*t)+i)*L + k]. A
// search builds it once per query and shares it, read only, between the
// workers that run long subjects.
func stripedProfile(q *profile.Query) []int16 {
	const L = vec.StripedLanes
	m := q.Len()
	t := stripes(m)
	dst := make([]int16, q.Width*t*L)
	for e := 0; e < q.Width; e++ {
		row := q.ExtRow(e)
		base := e * t * L
		for i := 0; i < t; i++ {
			for k := 0; k < L; k++ {
				p := k*t + i
				if p < m {
					dst[base+i*L+k] = row[q.Seq[p]]
				} else {
					dst[base+i*L+k] = profile.PadScore
				}
			}
		}
	}
	return dst
}

// alignPairLong computes the Smith-Waterman score of one long subject:
// Farrar's striped intra-task layout [13] (the vectorisation the paper
// contrasts with its inter-task scheme), advanced one subject column per
// vec.StepStriped16 call over prof, the query's stripedProfile. The
// column state lives in buf, so every pair after a worker's first is
// allocation-free. A pair whose 16-bit maximum reaches the int16 ceiling
// may have clipped; it is recomputed exactly by the 32-bit scalar routine
// the lane kernels escalate to, and counted in st.Overflows and
// st.OverflowCells.
//
//sw:hotpath
func alignPairLong(q *profile.Query, prof []int16, subject []alphabet.Code, p Params, buf *Buffers, st *Stats) int32 {
	m := q.Len()
	n := len(subject)
	if m == 0 || n == 0 {
		return 0
	}
	const L = vec.StripedLanes
	t := stripes(m)
	span := t * L
	hLoad := grow16(&buf.sH0, span)
	hStore := grow16(&buf.sH1, span)
	e := grow16(&buf.sE, span)
	maxv := vec.I16(grow16(&buf.sMax, L))
	for i := range hLoad {
		hLoad[i] = 0
		e[i] = vec.MinI16
	}
	vec.Set1(maxv, 0)
	gapOpen, qr, r := int16(p.GapOpen), int16(p.GapOpen+p.GapExtend), int16(p.GapExtend)
	for _, d := range subject {
		col := prof[int(d)*span : int(d)*span+span]
		vec.StepStriped16(hLoad, hStore, e, maxv, col, t, gapOpen, qr, r)
		hLoad, hStore = hStore, hLoad
	}
	if best := vec.HorizontalMax(maxv); best < vec.MaxI16 {
		return int32(best)
	}
	st.Overflows++
	st.OverflowCells += int64(m) * int64(n)
	h32 := grow32(&buf.h32, m+1)
	e32 := grow32(&buf.e32, m+1)
	return scalarLane(q, alphabet.BytesView(subject), 1, n, p, h32, e32)
}
