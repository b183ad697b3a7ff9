package core

import (
	"heterosw/internal/alphabet"
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/vec"
)

// The 8-bit first pass of the precision ladder. Scores are computed in
// unsigned byte lanes with biased substitution scores (the SSW Library's
// representation): twice the lanes per vector word as the 16-bit pass, so
// short-sequence lane groups — the bulk of a length-sorted protein
// database — pack twice as many subjects per vector iteration. Saturation
// escalates per lane, 8 -> 16 -> 32 bits, exactly mirroring the existing
// 16 -> 32 scheme; lane groups whose score upper bound provably fits a
// byte skip saturation detection entirely.

// scoreBound returns an upper bound on any Smith-Waterman score of the
// query against a subject of at most n residues: an alignment has at most
// min(M, n) match columns, each worth at most the matrix maximum, and gap
// columns never add score. A non-positive matrix maximum bounds every
// score at zero.
func scoreBound(q *profile.Query, n int) int64 {
	if q.MaxScore <= 0 {
		return 0
	}
	m := q.Len()
	if n < m {
		m = n
	}
	return int64(m) * int64(q.MaxScore)
}

// ladderSafe8 reports whether every lane of a width-n group provably stays
// below the biased uint8 saturation rail, so the 8-bit pass needs no
// saturation detection and no lane can ever need escalation.
func ladderSafe8(q *profile.Query, n int) bool {
	return scoreBound(q, n)+int64(q.Bias) < vec.MaxU8
}

// clampU8 clamps a non-negative penalty constant to the byte rail; a
// saturating subtract of 255 always floors at zero, which is the correct
// clamped value of any deeper penalty.
func clampU8(v int) uint8 {
	if v > vec.MaxU8 {
		return vec.MaxU8
	}
	return uint8(v)
}

// alignGroupIntrinsic8 is the ladder's first-pass kernel: the intrinsic
// tile driver of alignGroupIntrinsic run over unsigned byte lanes with
// biased scores. H, E and F hold true non-negative cell values clamped at
// zero (lifting a negative E/F to zero never changes H = max(0, ...), the
// standard unsigned-SIMD argument); the per-cell sequence is a saturating
// add of the biased score, a saturating subtract of the bias, the three-way
// max, and saturating gap updates. A lane whose tracked maximum reaches
// MaxU8-Bias may have clipped and is recomputed at 16 bits (scalarLane16);
// should that saturate too, at 32 bits (scalarLane).
//
// Callers must ensure q.Bias8Viable(); AlignGroup falls back to the 16-bit
// kernel otherwise.
//
//sw:hotpath
func alignGroupIntrinsic8(q *profile.Query, g *seqdb.LaneGroup, p Params, buf *Buffers) ([]int32, Stats) {
	L := g.Lanes
	M := q.Len()
	N := g.Width
	scores := make([]int32, L)
	var st Stats
	st.Groups = 1
	for lane := 0; lane < L; lane++ {
		if g.SeqIdx[lane] >= 0 {
			st.Alignments++
		}
	}
	if M == 0 || N == 0 {
		return scores, st
	}
	B := p.blockRows()
	if B == 0 || B > M {
		B = M
	}
	bias := int32(q.Bias)
	qr := int32(p.GapOpen + p.GapExtend)
	r := int32(p.GapExtend)
	isQP := p.Variant.Prof() == ProfQuery
	safe := ladderSafe8(q, N)
	if safe {
		st.Safe8Groups = 1
	}

	// H and E share one contiguous slab, mirroring the 16-bit kernel.
	he := grow8(&buf.he8, 2*(B+1)*L)
	h, e := he[:(B+1)*L], he[(B+1)*L:]
	hb := grow8(&buf.hb8, (N+1)*L)
	fb := grow8(&buf.fb8, (N+1)*L)
	maxv := buf.max8
	fcol := buf.f8
	diagv := buf.diag8

	vec.Set1U8(maxv, 0)
	for i := range hb {
		hb[i] = 0
		fb[i] = 0 // true -inf clamps to the unsigned floor
	}

	// Gap penalties clamp to the byte rail exactly: H <= 255, so a
	// saturating subtract of min(penalty, 255) equals the wide subtract
	// clamped at zero.
	qr8 := clampU8(int(qr))
	r8 := clampU8(int(r))

	// The byte-lane op sequence (AddSatU8 diag+biased score; SubSatU8Const
	// bias; MaxU8s with E and F; MaxIntoU8 tracker; SubSatU8Const updates
	// of E and F) is fused into one vec column step per database column;
	// internal/vec holds the unfused reference semantics.
	seqBytes := alphabet.BytesView(q.Seq)
	for i0 := 1; i0 <= M; i0 += B {
		i1 := i0 + B - 1
		if i1 > M {
			i1 = M
		}
		rows := i1 - i0 + 1
		for i := 0; i < (rows+1)*L; i++ {
			h[i] = 0
			e[i] = 0
		}
		vec.Set1U8(diagv, 0)
		tileSeq := seqBytes[i0-1 : i1]
		tileQP := q.QP8[(i0-1)*q.Width:]
		for jj := 1; jj <= N; jj++ {
			col := g.Interleaved[(jj-1)*L : jj*L]
			fbRow := vec.U8(fb[jj*L : jj*L+L])
			copy(fcol, fbRow)
			if isQP {
				vec.StepCol8QP(vec.U8(h[L:]), vec.U8(e[L:]), fcol, diagv, maxv,
					tileQP, q.Width, col, rows, L, q.Bias, qr8, r8)
			} else {
				buf.sr8.Build(q, col)
				vec.StepCol8SP(vec.U8(h[L:]), vec.U8(e[L:]), fcol, diagv, maxv,
					buf.sr8.Raw(), tileSeq, rows, L, q.Bias, qr8, r8)
			}
			hbRow := vec.U8(hb[jj*L : jj*L+L])
			copy(diagv, hbRow)
			copy(hbRow, h[rows*L:(rows+1)*L])
			copy(fbRow, fcol)
		}
	}

	// Score extraction with ladder escalation: provably-safe groups skip
	// detection entirely; otherwise a lane whose tracked maximum reached
	// the biased rail is recomputed at the next tier.
	rail := int32(vec.MaxU8) - bias
	var h16, e16 []int16
	var h32, e32 []int32
	for l := 0; l < L; l++ {
		if g.SeqIdx[l] < 0 {
			continue
		}
		if safe || int32(maxv[l]) < rail {
			scores[l] = int32(maxv[l])
			continue
		}
		// 8-bit saturation: recompute the lane at 16 bits.
		if h16 == nil {
			h16 = grow16(&buf.lane16H, M+1)
			e16 = grow16(&buf.lane16E, M+1)
		}
		st.Overflows8++
		st.OverflowCells += int64(M) * int64(g.Lens[l])
		s, sat := scalarLane16(q, g, l, p, h16, e16)
		if !sat {
			scores[l] = s
			continue
		}
		// 16-bit saturation: the top rung, exact 32-bit recomputation.
		if h32 == nil {
			h32 = grow32(&buf.h32, M+1)
			e32 = grow32(&buf.e32, M+1)
		}
		st.Overflows++
		st.OverflowCells += int64(M) * int64(g.Lens[l])
		scores[l] = scalarLane(q, g.Interleaved[l:], g.Lanes, g.Lens[l], p, h32, e32)
	}
	st.Cells = int64(M) * g.Residues
	st.VecIters = int64(M) * int64(N)
	st.PaddedCells = st.VecIters * int64(L)
	st.Columns = int64(N)
	if isQP {
		st.Gathers = st.VecIters
	} else {
		st.SPBuilds = st.Columns
	}
	return scores, st
}
