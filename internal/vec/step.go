package vec

// Fused column kernels. The per-op primitives in vec.go are the reference
// granularity — one emulated vector instruction per call — but at 16–64
// lanes the call and bounds-check overhead of that granularity dwarfs the
// arithmetic, so the inter-task kernels in internal/core advance the DP
// through these fused entry points instead: one call processes one
// database column across every row of the current query tile, keeping F,
// the diagonal vector and the running-maximum tracker register-resident
// for the whole column. The portable generics below are the semantic
// definition (they reproduce, lane for lane, the sequence of vec.go
// primitives a per-op kernel would issue); vec_amd64.s implements the same
// loops over real 256-bit registers.
//
// Layout contract shared by all four column steps:
//
//   - h and e hold the tile's H and E state for rows query rows, row ri at
//     h[ri*lanes : (ri+1)*lanes]. On entry h carries the previous column's
//     values (the "up" cells); on return, this column's. Callers whose
//     slabs include a boundary row 0 pass h[lanes:].
//   - f, diag and maxv are lanes-wide vectors carried across columns: the
//     vertical-gap state entering each row, the diagonal H value entering
//     row 0, and the running score maximum.
//   - qr is the gap-open+extend penalty and r the extend penalty, both
//     non-negative; the 16-bit forms rely on qr <= 16384 (enforced by
//     core.Params.Validate) so gap arithmetic cannot wrap below MinI16.
//
// The SP forms read the column's score profile (row stride = lanes) with
// the row selected by the query residue seq[ri]; the QP forms read the
// query profile (row stride = stride, row ri at qp[ri*stride:]) indexed by
// the column residues col[l]. The native QP and BuildRows paths use true
// vector gathers / in-register shuffles that read a few bytes past the
// last table row; they dispatch only when the table's backing array has
// the spare capacity (internal/profile over-allocates its tables for
// exactly this), and fall back to the portable loops otherwise.
//
// StepStriped16, at the end of the file, is the intra-task counterpart
// for one long subject: the query is striped across the lanes instead of
// the subjects, so it has its own layout, documented on it.

// StepCol16SP advances one database column of the 16-bit score-profile
// kernel. score is the column's score-row table (stride lanes) and seq the
// tile's query residues, so row ri scores with
// score[seq[ri]*lanes : ...].
func StepCol16SP(h, e, f, diag, maxv I16, score []int16, seq []uint8, rows, lanes int, qr, r int16) {
	if rows <= 0 {
		return
	}
	if native16(lanes) {
		stepCol16SP(&h[0], &e[0], &f[0], &diag[0], &maxv[0], &score[0], &seq[0], rows, lanes, int(qr), int(r))
		return
	}
	stepCol16SPGeneric(h, e, f, diag, maxv, score, seq, rows, lanes, qr, r)
}

//sw:hotpath
func stepCol16SPGeneric(h, e, f, diag, maxv I16, score []int16, seq []uint8, rows, lanes int, qr, r int16) {
	for ri := 0; ri < rows; ri++ {
		hrow := h[ri*lanes : (ri+1)*lanes]
		erow := e[ri*lanes : (ri+1)*lanes]
		sv := score[int(seq[ri])*lanes:]
		for l := 0; l < lanes; l++ {
			up := hrow[l]
			hv := int32(diag[l]) + int32(sv[l])
			if hv > MaxI16 {
				hv = MaxI16
			}
			// The low rail is unreachable: diag >= 0 and scores are
			// bounded by the matrix range (>= profile.PadScore).
			ev, fv := erow[l], f[l]
			if int32(ev) > hv {
				hv = int32(ev)
			}
			if int32(fv) > hv {
				hv = int32(fv)
			}
			if hv < 0 {
				hv = 0
			}
			h16 := int16(hv)
			if h16 > maxv[l] {
				maxv[l] = h16
			}
			uv := hv - int32(qr) // no saturation: 0 <= hv <= MaxI16, qr <= 16384
			e2 := int32(ev) - int32(r)
			if e2 < MinI16 {
				e2 = MinI16
			}
			if uv > e2 {
				e2 = uv
			}
			erow[l] = int16(e2)
			f2 := int32(fv) - int32(r)
			if f2 < MinI16 {
				f2 = MinI16
			}
			if uv > f2 {
				f2 = uv
			}
			f[l] = int16(f2)
			diag[l] = up
			hrow[l] = h16
		}
	}
}

// StepCol16QP advances one database column of the 16-bit query-profile
// kernel. qp is the query profile positioned at the tile's first row (row
// ri at qp[ri*stride:]); col holds the column's lane residues, each <
// stride. The native path gathers profile entries with vpgatherdd, which
// loads a dword per lane and so reads one element past qp[rows*stride-1];
// it requires cap(qp) >= rows*stride+1 and falls back to the portable
// loop otherwise.
func StepCol16QP(h, e, f, diag, maxv I16, qp []int16, stride int, col []uint8, rows, lanes int, qr, r int16) {
	if rows <= 0 {
		return
	}
	if native16(lanes) && cap(qp) >= rows*stride+1 {
		stepCol16QP(&h[0], &e[0], &f[0], &diag[0], &maxv[0], &qp[0], stride, &col[0], rows, lanes, int(qr), int(r))
		return
	}
	stepCol16QPGeneric(h, e, f, diag, maxv, qp, stride, col, rows, lanes, qr, r)
}

//sw:hotpath
func stepCol16QPGeneric(h, e, f, diag, maxv I16, qp []int16, stride int, col []uint8, rows, lanes int, qr, r int16) {
	for ri := 0; ri < rows; ri++ {
		hrow := h[ri*lanes : (ri+1)*lanes]
		erow := e[ri*lanes : (ri+1)*lanes]
		row := qp[ri*stride : ri*stride+stride]
		for l := 0; l < lanes; l++ {
			up := hrow[l]
			hv := int32(diag[l]) + int32(row[col[l]])
			if hv > MaxI16 {
				hv = MaxI16
			}
			ev, fv := erow[l], f[l]
			if int32(ev) > hv {
				hv = int32(ev)
			}
			if int32(fv) > hv {
				hv = int32(fv)
			}
			if hv < 0 {
				hv = 0
			}
			h16 := int16(hv)
			if h16 > maxv[l] {
				maxv[l] = h16
			}
			uv := hv - int32(qr)
			e2 := int32(ev) - int32(r)
			if e2 < MinI16 {
				e2 = MinI16
			}
			if uv > e2 {
				e2 = uv
			}
			erow[l] = int16(e2)
			f2 := int32(fv) - int32(r)
			if f2 < MinI16 {
				f2 = MinI16
			}
			if uv > f2 {
				f2 = uv
			}
			f[l] = int16(f2)
			diag[l] = up
			hrow[l] = h16
		}
	}
}

// StepCol8SP advances one database column of the 8-bit biased
// score-profile kernel: H/E/F are true non-negative cell values clamped at
// zero, scores are stored biased (score+bias), and every subtraction
// saturates at the unsigned floor. bias, qr and r are pre-clamped to the
// byte range by the caller (a penalty >= 255 zeroes any byte lane, so
// clamping is exact).
func StepCol8SP(h, e, f, diag, maxv U8, score []uint8, seq []uint8, rows, lanes int, bias, qr, r uint8) {
	if rows <= 0 {
		return
	}
	if native8(lanes) {
		stepCol8SP(&h[0], &e[0], &f[0], &diag[0], &maxv[0], &score[0], &seq[0], rows, lanes, int(bias), int(qr), int(r))
		return
	}
	stepCol8SPGeneric(h, e, f, diag, maxv, score, seq, rows, lanes, bias, qr, r)
}

//sw:hotpath
func stepCol8SPGeneric(h, e, f, diag, maxv U8, score []uint8, seq []uint8, rows, lanes int, bias, qr, r uint8) {
	for ri := 0; ri < rows; ri++ {
		hrow := h[ri*lanes : (ri+1)*lanes]
		erow := e[ri*lanes : (ri+1)*lanes]
		sv := score[int(seq[ri])*lanes:]
		for l := 0; l < lanes; l++ {
			up := hrow[l]
			hv := int32(diag[l]) + int32(sv[l])
			if hv > MaxU8 {
				hv = MaxU8 // vpaddusb clip: the lane will escalate
			}
			hv -= int32(bias)
			if hv < 0 {
				hv = 0
			}
			ev, fv := erow[l], f[l]
			if int32(ev) > hv {
				hv = int32(ev)
			}
			if int32(fv) > hv {
				hv = int32(fv)
			}
			h8 := uint8(hv)
			if h8 > maxv[l] {
				maxv[l] = h8
			}
			uv := hv - int32(qr)
			if uv < 0 {
				uv = 0
			}
			e2 := int32(ev) - int32(r)
			if e2 < 0 {
				e2 = 0
			}
			if uv > e2 {
				e2 = uv
			}
			erow[l] = uint8(e2)
			f2 := int32(fv) - int32(r)
			if f2 < 0 {
				f2 = 0
			}
			if uv > f2 {
				f2 = uv
			}
			f[l] = uint8(f2)
			diag[l] = up
			hrow[l] = h8
		}
	}
}

// StepCol8QP advances one database column of the 8-bit biased
// query-profile kernel. The native path replaces the per-lane gather with
// two in-register vpshufb table lookups (profile rows fit two 16-byte
// halves when stride <= 32), loading each row with a pair of 16-byte
// broadcasts that read up to 32 bytes from the row start; it requires
// stride <= 32, every col[l] < stride, and cap(qp) >= (rows-1)*stride+32,
// falling back to the portable loop otherwise.
func StepCol8QP(h, e, f, diag, maxv U8, qp []uint8, stride int, col []uint8, rows, lanes int, bias, qr, r uint8) {
	if rows <= 0 {
		return
	}
	if native8(lanes) && stride <= 32 && cap(qp) >= (rows-1)*stride+32 {
		stepCol8QP(&h[0], &e[0], &f[0], &diag[0], &maxv[0], &qp[0], stride, &col[0], rows, lanes, int(bias), int(qr), int(r))
		return
	}
	stepCol8QPGeneric(h, e, f, diag, maxv, qp, stride, col, rows, lanes, bias, qr, r)
}

//sw:hotpath
func stepCol8QPGeneric(h, e, f, diag, maxv U8, qp []uint8, stride int, col []uint8, rows, lanes int, bias, qr, r uint8) {
	for ri := 0; ri < rows; ri++ {
		hrow := h[ri*lanes : (ri+1)*lanes]
		erow := e[ri*lanes : (ri+1)*lanes]
		row := qp[ri*stride : ri*stride+stride]
		for l := 0; l < lanes; l++ {
			up := hrow[l]
			hv := int32(diag[l]) + int32(row[col[l]])
			if hv > MaxU8 {
				hv = MaxU8
			}
			hv -= int32(bias)
			if hv < 0 {
				hv = 0
			}
			ev, fv := erow[l], f[l]
			if int32(ev) > hv {
				hv = int32(ev)
			}
			if int32(fv) > hv {
				hv = int32(fv)
			}
			h8 := uint8(hv)
			if h8 > maxv[l] {
				maxv[l] = h8
			}
			uv := hv - int32(qr)
			if uv < 0 {
				uv = 0
			}
			e2 := int32(ev) - int32(r)
			if e2 < 0 {
				e2 = 0
			}
			if uv > e2 {
				e2 = uv
			}
			erow[l] = uint8(e2)
			f2 := int32(fv) - int32(r)
			if f2 < 0 {
				f2 = 0
			}
			if uv > f2 {
				f2 = uv
			}
			f[l] = uint8(f2)
			diag[l] = up
			hrow[l] = h8
		}
	}
}

// BuildRows16 fills a score-profile row table from a pad-extended
// substitution table: dst[e*lanes+l] = table[e*stride+idx[l]] for every
// residue row e in [0, nrows). The native path gathers with vpgatherdd
// (dword loads, one element of over-read) and requires
// cap(table) >= nrows*stride+1.
func BuildRows16(dst, table []int16, idx []uint8, nrows, lanes, stride int) {
	if native16(lanes) && cap(table) >= nrows*stride+1 {
		buildRows16(&dst[0], &table[0], &idx[0], nrows, lanes, stride)
		return
	}
	buildRows16Generic(dst, table, idx, nrows, lanes, stride)
}

//sw:hotpath
func buildRows16Generic(dst, table []int16, idx []uint8, nrows, lanes, stride int) {
	// Walk lane-major: each lane copies one strided column of the table,
	// the transposition the real SP code performs with vector inserts.
	for l, d := range idx[:lanes] {
		src := table[int(d):]
		for e := 0; e < nrows; e++ {
			dst[e*lanes+l] = src[e*stride]
		}
	}
}

// BuildRows8 is BuildRows16 over biased uint8 tables, using the vpshufb
// two-half lookup; the native path requires stride <= 32, idx values <
// stride, and cap(table) >= (nrows-1)*stride+32.
func BuildRows8(dst, table, idx []uint8, nrows, lanes, stride int) {
	if native8(lanes) && stride <= 32 && cap(table) >= (nrows-1)*stride+32 {
		buildRows8(&dst[0], &table[0], &idx[0], nrows, lanes, stride)
		return
	}
	buildRows8Generic(dst, table, idx, nrows, lanes, stride)
}

//sw:hotpath
func buildRows8Generic(dst, table, idx []uint8, nrows, lanes, stride int) {
	for l, d := range idx[:lanes] {
		src := table[int(d):]
		for e := 0; e < nrows; e++ {
			dst[e*lanes+l] = src[e*stride]
		}
	}
}

// StripedLanes is the lane count of the striped long-sequence step: one
// 256-bit register of int16 elements.
const StripedLanes = 16

// StepStriped16 advances the striped (Farrar) single-pair kernel by one
// subject column. The query of length m is laid out in t = ceil(m/16)
// stripes: lane k of stripe i holds query position k*t + i, so stripe i's
// state is the 16-element vector at [i*16 : (i+1)*16] of each array.
//
//   - prof holds the t stripe vectors of the column residue's scores,
//     padding positions (>= m) scoring strongly negative.
//   - hLoad is the previous column's H (read only), hStore receives this
//     column's H; the caller swaps them between columns.
//   - e is the subject-direction gap state, updated in place.
//   - maxv is the 16-lane running score maximum.
//   - gapOpen, qr and r are the open, open+extend and extend penalties
//     (qr <= 16384, as for the column steps above).
//
// One call runs the main pass over every stripe and then the lazy-F
// pass, which carries query-direction gaps across stripe boundaries: the
// main pass assumes no F flows from lane k-1's last stripe into lane k's
// first, and each lazy pass shifts F one lane up and decays it down the
// stripes, raising H (and refreshing E) where it still wins. It stops at
// the first stripe where F <= H - gapOpen in every lane — Farrar's test:
// such an F neither raises that H nor carries anything beyond the
// H - qr refresh already propagated from it — and after at most 16
// passes, since F crosses at most 15 lane boundaries. H, E, F and maxv
// saturate exactly as the per-op primitives in vec.go do; a maxv lane
// reaching MaxI16 means the score may have clipped.
func StepStriped16(hLoad, hStore, e, maxv I16, prof []int16, t int, gapOpen, qr, r int16) {
	n := t * StripedLanes
	if t <= 0 || len(hLoad) < n || len(hStore) < n || len(e) < n || len(prof) < n || len(maxv) < StripedLanes {
		panic("vec: StepStriped16 operand shorter than t stripes")
	}
	if native16(StripedLanes) {
		stepStriped16(&hLoad[0], &hStore[0], &e[0], &maxv[0], &prof[0], t, int(gapOpen), int(qr), int(r))
		return
	}
	stepStriped16Generic(hLoad, hStore, e, maxv, prof, t, gapOpen, qr, r)
}

//sw:hotpath
func stepStriped16Generic(hLoad, hStore, e, maxv I16, prof []int16, t int, gapOpen, qr, r int16) {
	const L = StripedLanes
	var vH, vF, vMax [L]int16
	copy(vMax[:], maxv)
	// Stripe 0's diagonal is the previous column's last stripe shifted one
	// lane up: lane k-1 of stripe t-1 holds query position k*t - 1.
	last := hLoad[(t-1)*L : t*L]
	for k := L - 1; k > 0; k-- {
		vH[k] = last[k-1]
	}
	for k := range vF {
		vF[k] = MinI16
	}
	for i := 0; i < t; i++ {
		pv := prof[i*L : (i+1)*L]
		ev := e[i*L : (i+1)*L]
		hs := hStore[i*L : (i+1)*L]
		hl := hLoad[i*L : (i+1)*L]
		for k := 0; k < L; k++ {
			h := sat(int32(vH[k]) + int32(pv[k]))
			h = max(h, ev[k], vF[k], 0)
			vMax[k] = max(vMax[k], h)
			hs[k] = h
			u := sat(int32(h) - int32(qr))
			ev[k] = max(sat(int32(ev[k])-int32(r)), u)
			vF[k] = max(sat(int32(vF[k])-int32(r)), u)
			vH[k] = hl[k]
		}
	}
	for pass := 0; pass < L; pass++ {
		for k := L - 1; k > 0; k-- {
			vF[k] = vF[k-1]
		}
		vF[0] = MinI16
		for i := 0; i < t; i++ {
			hs := hStore[i*L : (i+1)*L]
			live := false
			for k := 0; k < L; k++ {
				if vF[k] > sat(int32(hs[k])-int32(gapOpen)) {
					live = true
				}
			}
			if !live {
				copy(maxv, vMax[:])
				return
			}
			ev := e[i*L : (i+1)*L]
			for k := 0; k < L; k++ {
				h := max(hs[k], vF[k])
				hs[k] = h
				vMax[k] = max(vMax[k], h)
				ev[k] = max(ev[k], sat(int32(h)-int32(qr)))
				vF[k] = sat(int32(vF[k]) - int32(r))
			}
		}
	}
	copy(maxv, vMax[:])
}
