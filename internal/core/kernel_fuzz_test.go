package core

import (
	"bytes"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
	"heterosw/internal/vec"
)

// Caps bounding one fuzz execution: large enough to cross the int16
// saturation ceiling (a tryptophan self-alignment needs ~3000 residues at
// 11 points per column) and to exercise multi-group lane packings, small
// enough that one input stays well under a second across all kernels.
const (
	fuzzMaxQuery  = 3200
	fuzzMaxSeqLen = 3200
	fuzzMaxDBRes  = 6400
	fuzzMaxSeqs   = 64
)

// fuzzLadderMaxCells bounds the inputs that additionally run the 8-bit
// ladder passes. A fully saturating input pays up to three full passes per
// subject (8, 16 and 32 bits), so running the ladder on the 3000-residue
// int16-saturation seed would triple that seed's cost and trip the fuzz
// engine's per-input hang budget under coverage instrumentation. Every
// byte-rail boundary lives at scores of a few hundred — a few dozen
// residues — so the cap loses no 8-bit coverage; the giant-input ladder
// chain is pinned deterministically by TestLadderEscalationTiers instead.
const fuzzLadderMaxCells = 2_000_000

// fuzzSeqDelim separates database sequences in the raw fuzz input.
const fuzzSeqDelim = 0xFF

// fuzzResiduesAlpha maps raw fuzz bytes onto an alphabet's code space.
func fuzzResiduesAlpha(raw []byte, max int, alpha *alphabet.Alphabet) []alphabet.Code {
	if len(raw) > max {
		raw = raw[:max]
	}
	out := make([]alphabet.Code, len(raw))
	for i, b := range raw {
		out[i] = alphabet.Code(int(b) % alpha.Size())
	}
	return out
}

// fuzzResidues maps raw fuzz bytes onto the 24-letter protein alphabet.
func fuzzResidues(raw []byte, max int) []alphabet.Code {
	return fuzzResiduesAlpha(raw, max, alphabet.Protein)
}

// fuzzSequence builds an internal sequence from residue codes via the
// ASCII round trip, so the input goes through the same constructor real
// data does.
func fuzzSequence(id string, codes []alphabet.Code, alpha *alphabet.Alphabet) *sequence.Sequence {
	return sequence.FromStringAlpha(id, string(alpha.DecodeAll(codes)), alpha)
}

// fuzzDatabase splits the raw bytes into database sequences on the
// delimiter byte, applying the corpus caps.
func fuzzDatabase(raw []byte, sorted bool, alpha *alphabet.Alphabet) *seqdb.Database {
	var seqs []*sequence.Sequence
	var total int
	for _, chunk := range bytes.Split(raw, []byte{fuzzSeqDelim}) {
		if len(chunk) == 0 {
			continue
		}
		codes := fuzzResiduesAlpha(chunk, fuzzMaxSeqLen, alpha)
		if total+len(codes) > fuzzMaxDBRes {
			codes = codes[:fuzzMaxDBRes-total]
			if len(codes) == 0 {
				break
			}
		}
		total += len(codes)
		seqs = append(seqs, fuzzSequence("s", codes, alpha))
		if len(seqs) >= fuzzMaxSeqs || total >= fuzzMaxDBRes {
			break
		}
	}
	if len(seqs) == 0 {
		return nil
	}
	return seqdb.New(seqs, sorted)
}

// FuzzKernelParity drives random queries and databases through every
// scoring path — the scalar kernel, the guided and intrinsic lane kernels
// (16-bit with 32-bit overflow escalation, and the 8-bit ladder), and the
// striped long-sequence kernel on every subject — and requires
// bit-identical scores against the swalign oracle, on the native and the
// portable vec backend. The seed corpus covers the int16 saturation
// boundary, 1-residue sequences on both sides, lane-count edges (one
// sequence more than a full lane group), query lengths on both sides of
// the striped kernel's 16-lane stripe boundaries and zero gap penalties
// (the lazy-F worst case).
func FuzzKernelParity(f *testing.F) {
	w := byte(17) // 'W', the highest-scoring self-match in BLOSUM62
	wRun := bytes.Repeat([]byte{w}, 3000)
	lane33 := bytes.Repeat([]byte{w, fuzzSeqDelim}, 33)
	// penSel packs gap penalties: low nibble opens, high nibble extends.
	paperPens := uint8(10 | 2<<4)
	f.Add([]byte("MKWVLA"), []byte("MKWVLA\xffCCQEGHIL\xffW"), uint8(2), paperPens, uint8(1))
	f.Add([]byte{w}, []byte{w}, uint8(0), paperPens, uint8(0))                                     // 1-residue pair
	f.Add(wRun, wRun, uint8(4), paperPens, uint8(1))                                               // int16 saturation
	f.Add([]byte{w}, wRun, uint8(6), paperPens, uint8(0))                                          // 1-residue query, long subject
	f.Add(wRun[:64], lane33, uint8(6), paperPens, uint8(2))                                        // 33 sequences across 32 lanes
	f.Add([]byte("ARNDARND"), []byte("ARND\xffRNDA\xffNDAR"), uint8(3), uint8(0), uint8(0))        // zero gap penalties
	f.Add([]byte{}, []byte("ARND"), uint8(1), paperPens, uint8(3))                                 // empty query
	f.Add([]byte("AAAA"), bytes.Repeat([]byte{0, fuzzSeqDelim}, 40), uint8(7), uint8(5), uint8(7)) // many tiny sequences, 64 lanes

	// int8-saturation seeds for the 8-bit ladder: W self-alignments score
	// 11/residue, so these straddle the signed-byte boundary (121 vs 132
	// over 127) and the biased unsigned rail (242 vs 253 over 255-bias=251)
	// — the group-safety bound and the escalation test both flip inside
	// this window. Zero penalties keep saturated H plateaus alive through
	// padding, and a 1-residue pair against a saturating neighbour pins
	// per-lane (not per-group) escalation.
	w11, w12 := bytes.Repeat([]byte{w}, 11), bytes.Repeat([]byte{w}, 12)
	w22, w23 := bytes.Repeat([]byte{w}, 22), bytes.Repeat([]byte{w}, 23)
	f.Add(w11, append(append([]byte{}, w11...), append([]byte{fuzzSeqDelim}, w12...)...), uint8(4), paperPens, uint8(0)) // straddles 127
	f.Add(w12, w12, uint8(0), paperPens, uint8(1))                                                                       // just over 127
	f.Add(w23, append(append([]byte{}, w22...), append([]byte{fuzzSeqDelim}, w23...)...), uint8(4), paperPens, uint8(2)) // straddles 255-bias
	f.Add(w23, w23, uint8(2), uint8(0), uint8(0))                                                                        // 8-bit rail, zero penalties
	f.Add(w23, append(append([]byte{}, w23...), fuzzSeqDelim, w), uint8(1), paperPens, uint8(0))                         // saturating lane beside a 1-residue lane
	f.Add(wRun[:256], wRun[:256], uint8(6), uint8(0), uint8(3))                                                          // deep zero-penalty plateau over the rail

	// Backend-dispatch edges: the native AVX2 column kernels only engage
	// on full 16-lane (int16) / 32-lane (uint8) groups, so sequence counts
	// one past a group boundary exercise the mixed native-group +
	// portable-tail packing, and a saturating lane inside an odd tail pins
	// the rails on both sides of the dispatch split.
	lane17 := bytes.Repeat([]byte{w, fuzzSeqDelim}, 17) // one past a 16-lane group
	f.Add(wRun[:48], lane17, uint8(6), paperPens, uint8(1))
	f.Add(w23, append(bytes.Repeat([]byte{w, fuzzSeqDelim}, 32), w23...), uint8(7), paperPens, uint8(2)) // 33 lanes, saturating tail lane
	f.Add(wRun[:128], bytes.Repeat([]byte{w, fuzzSeqDelim}, 31), uint8(7), uint8(0), uint8(0))           // 31 lanes: just under the u8 group width

	// Striped long-path edges: query lengths one short of, at and one
	// past a multiple of the 16 stripe lanes, with zero extend (F never
	// decays, the most lazy-F passes) and zero open.
	mixed := []byte("MKWVLAARNDCQEGHILKMFPSTWYVMKWVLAARNDCQEGHIL")
	for _, m := range []int{15, 16, 17, 31, 33} {
		f.Add(mixed[:m], append(append([]byte{}, mixed...), append([]byte{fuzzSeqDelim}, mixed[5:]...)...), uint8(3), uint8(10), uint8(0))
	}
	f.Add(mixed[:33], mixed, uint8(5), uint8(4), uint8(0)) // extend 0
	f.Add(mixed[:17], mixed, uint8(2), uint8(0), uint8(1)) // open 0, extend 0

	lanesTable := []int{1, 2, 3, 4, 8, 16, 32, 64}
	blockTable := []int{0, 1, 7, 64}

	f.Fuzz(func(t *testing.T, qRaw, dbRaw []byte, lanesSel, penSel, blockSel uint8) {
		query := fuzzResidues(qRaw, fuzzMaxQuery)
		db := fuzzDatabase(dbRaw, lanesSel&1 == 0, alphabet.Protein)
		if db == nil {
			return
		}
		lanes := lanesTable[int(lanesSel)%len(lanesTable)]
		p := Params{
			GapOpen:   int(penSel & 0x0F),
			GapExtend: int(penSel >> 4),
			Blocked:   blockSel&1 == 1,
			BlockRows: blockTable[int(blockSel>>1)%len(blockTable)],
		}
		sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: p.GapOpen, GapExtend: p.GapExtend}
		qp := profile.NewQuery(query, submat.BLOSUM62)

		want := make([]int32, db.Len())
		for i := 0; i < db.Len(); i++ {
			want[i] = int32(swalign.Score(query, db.Seq(i).Residues, sc))
		}
		check := func(kernel string, got []int32) {
			t.Helper()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s (lanes=%d, q=%daa, penalties %d/%d, blocked=%v/%d): seq %d (%daa) scored %d, oracle %d",
						kernel, lanes, len(query), p.GapOpen, p.GapExtend, p.Blocked, p.BlockRows,
						i, db.Seq(i).Len(), got[i], want[i])
				}
			}
		}

		ladderOK := int64(len(query))*db.Residues() <= fuzzLadderMaxCells
		specs := []struct {
			v    Variant
			prec Precision
		}{
			{NoVecSP, Prec16},
			{GuidedQP, Prec16},
			{IntrinsicSP, Prec16},
			{IntrinsicSP, Prec8},
			{IntrinsicQP, Prec8},
		}
		runSpecs := func(tag string, vecOnly bool) {
			for _, s := range specs {
				if s.prec == Prec8 && !ladderOK {
					continue
				}
				if vecOnly && s.v.Vec() == VecNone {
					continue
				}
				pv := p
				pv.Variant = s.v
				pv.Prec = s.prec
				vl := lanes
				if s.v.Vec() == VecNone {
					vl = 1
				}
				got, _ := runVariantQuiet(db, qp, pv, vl)
				check(VariantSpec(s.v, s.prec)+tag, got)
			}
		}
		runSpecs("", false)
		// On AVX2 hosts the pass above ran the native backend; replay the
		// vectorised kernels with the portable loops forced so every input
		// pins native == portable == oracle. Without AVX2 both passes would
		// be identical, so the replay is skipped.
		if vec.Native() {
			prev := vec.ForcePortable(true)
			runSpecs(" [portable]", true)
			vec.ForcePortable(prev)
		}

		// The striped long path on every subject, whatever its length:
		// native == portable == oracle pair by pair.
		long := make([]int32, db.Len())
		longPortable := make([]int32, db.Len())
		sprof := stripedProfile(qp)
		buf := NewBuffers(vec.StripedLanes)
		var st Stats
		for i := 0; i < db.Len(); i++ {
			long[i] = alignPairLong(qp, sprof, db.Seq(i).Residues, p, buf, &st)
		}
		check("long-striped", long)
		if vec.Native() {
			prev := vec.ForcePortable(true)
			for i := 0; i < db.Len(); i++ {
				longPortable[i] = alignPairLong(qp, sprof, db.Seq(i).Residues, p, buf, &st)
			}
			vec.ForcePortable(prev)
			check("long-striped [portable]", longPortable)
		}

		// DNA leg: the same raw input mapped onto the 15-letter IUPAC
		// nucleotide alphabet and scored with the NUC match/mismatch matrix
		// against the oracle — pins that no kernel, profile or packing path
		// still assumes the 24-letter protein table. A reduced kernel set
		// (scalar, intrinsic 16-bit, ladder 8-bit) bounds the extra cost;
		// the protein leg above already sweeps the full variant matrix.
		dnaQuery := fuzzResiduesAlpha(qRaw, fuzzMaxQuery, alphabet.DNA)
		dnaDB := fuzzDatabase(dbRaw, lanesSel&1 == 0, alphabet.DNA)
		if dnaDB != nil {
			dsc := swalign.Scoring{Matrix: submat.NUC, GapOpen: p.GapOpen, GapExtend: p.GapExtend}
			dqp := profile.NewQuery(dnaQuery, submat.NUC)
			dwant := make([]int32, dnaDB.Len())
			for i := 0; i < dnaDB.Len(); i++ {
				dwant[i] = int32(swalign.Score(dnaQuery, dnaDB.Seq(i).Residues, dsc))
			}
			for _, s := range []struct {
				v    Variant
				prec Precision
			}{
				{NoVecSP, Prec16},
				{IntrinsicSP, Prec16},
				{IntrinsicSP, Prec8},
			} {
				if s.prec == Prec8 && !ladderOK {
					continue
				}
				pv := p
				pv.Variant = s.v
				pv.Prec = s.prec
				vl := lanes
				if s.v.Vec() == VecNone {
					vl = 1
				}
				got, _ := runVariantQuiet(dnaDB, dqp, pv, vl)
				for i := range dwant {
					if got[i] != dwant[i] {
						t.Fatalf("dna %s (lanes=%d, q=%dnt, penalties %d/%d): seq %d (%dnt) scored %d, oracle %d",
							VariantSpec(s.v, s.prec), vl, len(dnaQuery), p.GapOpen, p.GapExtend,
							i, dnaDB.Seq(i).Len(), got[i], dwant[i])
					}
				}
			}
		}
	})
}
