package core

import (
	"heterosw/internal/alphabet"
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/vec"
)

// alignGroupIntrinsic is the hand-vectorised kernel: explicit fixed-width
// 16-bit saturating vector operations from internal/vec, exactly the
// operation sequence an intrinsics implementation issues per cell. Lanes
// whose running maximum reaches the int16 ceiling are recomputed with the
// scalar 32-bit kernel (the standard saturation-escalation scheme of
// SIMD Smith-Waterman implementations).
//
// The tile driver is identical to the guided kernel's; see
// alignGroupGuided for the boundary hand-off invariants.
//
//sw:hotpath
func alignGroupIntrinsic(q *profile.Query, g *seqdb.LaneGroup, p Params, buf *Buffers) ([]int32, Stats) {
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
	qr := int16(p.GapOpen + p.GapExtend)
	r := int16(p.GapExtend)
	isQP := p.Variant.Prof() == ProfQuery

	// H and E share one contiguous slab so a tile's hot state is a single
	// block; each holds (B+1)*L entries with row 0 the tile boundary row.
	he := grow16(&buf.he16, 2*(B+1)*L)
	h, e := he[:(B+1)*L], he[(B+1)*L:]
	hb := grow16(&buf.hb16, (N+1)*L)
	fb := grow16(&buf.fb16, (N+1)*L)
	maxv := buf.max16
	fcol := buf.f16
	diagv := buf.diag16

	vec.Set1(maxv, 0)
	for i := range hb {
		hb[i] = 0
		fb[i] = vec.MinI16
	}

	// The per-row vector-op sequence (AddSat diag+score; Max with E, F,
	// zero; MaxInto tracker; SubSatConst/Max updates of E and F) is fused
	// into one vec column step per database column, amortising dispatch
	// across the whole tile and keeping F, the diagonal and the tracker
	// register-resident on the native backend. internal/vec holds the
	// unfused reference semantics; the device model costs the individual
	// operations.
	seqBytes := alphabet.BytesView(q.Seq)
	for i0 := 1; i0 <= M; i0 += B {
		i1 := i0 + B - 1
		if i1 > M {
			i1 = M
		}
		rows := i1 - i0 + 1
		for i := 0; i < (rows+1)*L; i++ {
			h[i] = 0
			e[i] = vec.MinI16
		}
		vec.Set1(diagv, 0)
		tileSeq := seqBytes[i0-1 : i1]
		tileQP := q.QP[(i0-1)*q.Width:]
		for jj := 1; jj <= N; jj++ {
			col := g.Interleaved[(jj-1)*L : jj*L]
			fbRow := vec.I16(fb[jj*L : jj*L+L])
			copy(fcol, fbRow)
			if isQP {
				vec.StepCol16QP(vec.I16(h[L:]), vec.I16(e[L:]), fcol, diagv, maxv,
					tileQP, q.Width, col, rows, L, qr, r)
			} else {
				buf.sr.Build(q, col)
				vec.StepCol16SP(vec.I16(h[L:]), vec.I16(e[L:]), fcol, diagv, maxv,
					buf.sr.Raw(), tileSeq, rows, L, qr, r)
			}
			hbRow := vec.I16(hb[jj*L : jj*L+L])
			copy(diagv, hbRow)
			copy(hbRow, h[rows*L:(rows+1)*L])
			copy(fbRow, fcol)
		}
	}

	// Score extraction with saturation escalation: a lane whose tracked
	// maximum hit the int16 ceiling may have been clipped anywhere in the
	// matrix, so its exact score is recomputed in 32 bits.
	var h32, e32 []int32
	for l := 0; l < L; l++ {
		if g.SeqIdx[l] < 0 {
			continue
		}
		if maxv[l] == vec.MaxI16 {
			if h32 == nil {
				h32 = grow32(&buf.h32, M+1)
				e32 = grow32(&buf.e32, M+1)
			}
			scores[l] = scalarLane(q, g.Interleaved[l:], g.Lanes, g.Lens[l], p, h32, e32)
			st.Overflows++
			st.OverflowCells += int64(M) * int64(g.Lens[l])
		} else {
			scores[l] = int32(maxv[l])
		}
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
