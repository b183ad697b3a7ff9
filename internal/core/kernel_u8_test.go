package core

import (
	"math/rand"
	"strings"
	"testing"

	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/vec"
)

// ladderParams returns intrinsic params with the 8-bit first pass enabled.
func ladderParams(v Variant, blocked bool, blockRows int) Params {
	p := testParamsBase
	p.Variant = v
	p.Blocked = blocked
	p.BlockRows = blockRows
	p.Prec = Prec8
	return p
}

// The 8-bit first pass must be score-identical to the oracle across both
// profile modes, every lane width and blocking shape — saturating lanes
// escalate transparently.
func TestLadderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	db := randDB(rng, 41, 70, true)
	query := randProtein(rng, 52)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	if !q.Bias8Viable() {
		t.Fatal("BLOSUM62 must be byte-viable")
	}
	want := oracleScores(db, query.Residues)
	for _, v := range []Variant{IntrinsicQP, IntrinsicSP} {
		for _, blk := range [][2]int{{0, 0}, {1, 1}, {1, 7}, {1, 64}} {
			for _, lanes := range []int{1, 4, 8, 32, 64} {
				p := ladderParams(v, blk[0] == 1, blk[1])
				got, _ := runVariantQuiet(db, q, p, lanes)
				for i := range want {
					if int(got[i]) != want[i] {
						t.Fatalf("%s blocked=%v/%d lanes=%d: seq %d score %d, want %d",
							VariantSpec(v, Prec8), p.Blocked, p.BlockRows, lanes, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// Three subjects pinned to the three rungs of the ladder: a short one that
// resolves in the provably-safe 8-bit pass, a mid one that saturates the
// biased byte rail but fits 16 bits, and a long one that climbs to 32
// bits. Per-tier overflow counters must record exactly the escalations.
func TestLadderEscalationTiers(t *testing.T) {
	w := strings.Repeat("W", 23)      // 11*23 = 253 > 255-bias(4) = 251: needs 16 bits
	long := strings.Repeat("W", 3000) // 33000 > MaxInt16: needs 32 bits
	db := seqdb.New([]*sequence.Sequence{
		sequence.FromString("short", "ARNDARND"),
		sequence.FromString("mid", w),
		sequence.FromString("long", long),
	}, true)
	query := sequence.FromString("q", long)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	want := oracleScores(db, query.Residues)

	for _, blocked := range []bool{false, true} {
		p := ladderParams(IntrinsicSP, blocked, 0)
		// lanes=1: one group per subject, so the short group is provably
		// byte-safe on its own.
		got, st := runVariantQuiet(db, q, p, 1)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("blocked=%v: seq %d score %d, want %d", blocked, i, got[i], want[i])
			}
		}
		if st.Overflows8 != 2 {
			t.Fatalf("blocked=%v: Overflows8 = %d, want 2 (mid and long)", blocked, st.Overflows8)
		}
		if st.Overflows != 1 {
			t.Fatalf("blocked=%v: Overflows = %d, want 1 (long)", blocked, st.Overflows)
		}
		if st.Safe8Groups != 1 {
			t.Fatalf("blocked=%v: Safe8Groups = %d, want 1 (short)", blocked, st.Safe8Groups)
		}
		// mid pays one 16-bit recompute; long pays a 16-bit then a 32-bit.
		if st.OverflowCells != int64(q.Len())*(int64(len(w))+2*int64(len(long))) {
			t.Fatalf("blocked=%v: OverflowCells = %d", blocked, st.OverflowCells)
		}
	}
}

// The 16-bit middle rung must agree with the oracle on scores that fit
// int16 and report saturation on scores that do not.
func TestScalarLane16(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	db := randDB(rng, 15, 60, true)
	query := randProtein(rng, 48)
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	want := oracleScores(db, query.Residues)
	p := testParamsBase
	p.Variant = IntrinsicSP
	groups := db.Groups(4)
	h := make([]int16, q.Len()+1)
	e := make([]int16, q.Len()+1)
	for _, g := range groups {
		for l, idx := range g.SeqIdx {
			if idx < 0 {
				continue
			}
			s, sat := scalarLane16(q, g, l, p, h, e)
			if sat {
				t.Fatalf("seq %d: unexpected saturation", idx)
			}
			if int(s) != want[idx] {
				t.Fatalf("seq %d: score %d, want %d", idx, s, want[idx])
			}
		}
	}

	long := strings.Repeat("W", 3000)
	ldb := seqdb.New([]*sequence.Sequence{sequence.FromString("l", long)}, true)
	lq := profile.NewQuery(sequence.FromString("q", long).Residues, submat.BLOSUM62)
	lh := make([]int16, lq.Len()+1)
	le := make([]int16, lq.Len()+1)
	if _, sat := scalarLane16(lq, ldb.Groups(1)[0], 0, p, lh, le); !sat {
		t.Fatal("33000-scoring pair did not report int16 saturation")
	}
}

// An 8-bit ladder search routes long subjects to the 16-bit striped
// kernel; it must match the oracle, and a pair beyond int16 must escalate
// to 32 bits exactly once (there is no 8-bit tier on the long path).
func TestStripedLadderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	buf := NewBuffers(vec.StripedLanes)
	subjects := []*sequence.Sequence{
		randProtein(rng, 40),
		randProtein(rng, 500),
		sequence.FromString("mid", strings.Repeat("W", 25)),
		sequence.FromString("long", strings.Repeat("W", 3100)),
	}
	p := testParamsBase
	p.Variant = IntrinsicSP
	p.Prec = Prec8
	for qi, qlen := range []int{30, 300} {
		query := randProtein(rng, qlen)
		q := profile.NewQuery(query.Residues, submat.BLOSUM62)
		prof := stripedProfile(q)
		for si, s := range subjects {
			var st Stats
			got := alignPairLong(q, prof, s.Residues, p, buf, &st)
			want := oracleScores(seqdb.New([]*sequence.Sequence{s}, true), query.Residues)[0]
			if int(got) != want {
				t.Fatalf("query %d subject %d: score %d, want %d", qi, si, got, want)
			}
		}
	}
	// The W self-alignment (34,100 > int16) escalates once.
	wq := sequence.FromString("q", strings.Repeat("W", 3100))
	q := profile.NewQuery(wq.Residues, submat.BLOSUM62)
	var st Stats
	if got := alignPairLong(q, stripedProfile(q), wq.Residues, p, buf, &st); got != 11*3100 {
		t.Fatalf("W-run score %d, want %d", got, 11*3100)
	}
	if st.Overflows8 != 0 || st.Overflows != 1 {
		t.Fatalf("W-run escalations: Overflows8=%d Overflows=%d, want 0/1", st.Overflows8, st.Overflows)
	}
}

func TestVariantSpecRoundTrip(t *testing.T) {
	for _, v := range Variants() {
		got, prec, err := ParseVariantSpec(v.String())
		if err != nil || got != v || prec != Prec16 {
			t.Fatalf("ParseVariantSpec(%q) = %v/%v/%v", v.String(), got, prec, err)
		}
	}
	for _, v := range []Variant{IntrinsicQP, IntrinsicSP} {
		spec := VariantSpec(v, Prec8)
		got, prec, err := ParseVariantSpec(spec)
		if err != nil || got != v || prec != Prec8 {
			t.Fatalf("ParseVariantSpec(%q) = %v/%v/%v", spec, got, prec, err)
		}
	}
	for _, bad := range []string{"simd-SP-8bit", "no-vec-QP-8bit", "intrinsic-XX-8bit"} {
		if _, _, err := ParseVariantSpec(bad); err == nil {
			t.Fatalf("ParseVariantSpec(%q) accepted", bad)
		}
	}
	if ok := func() bool {
		p := Params{Variant: GuidedSP, GapOpen: 10, GapExtend: 2, Prec: Prec8}
		return p.Validate() != nil
	}(); !ok {
		t.Fatal("Params.Validate accepted Prec8 on a guided variant")
	}
}
