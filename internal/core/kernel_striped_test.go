package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"heterosw/internal/alphabet"
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
	"heterosw/internal/vec"
)

// longPair scores one pair on the striped long path under the selected
// backend and again with the portable loops forced, failing unless both
// agree; it returns the score and the first run's escalation counts.
func longPair(t *testing.T, q *profile.Query, subject []alphabet.Code, p Params) (int32, Stats) {
	t.Helper()
	var st, stPort Stats
	prof := stripedProfile(q)
	got := alignPairLong(q, prof, subject, p, NewBuffers(vec.StripedLanes), &st)
	prev := vec.ForcePortable(true)
	port := alignPairLong(q, prof, subject, p, NewBuffers(vec.StripedLanes), &stPort)
	vec.ForcePortable(prev)
	if got != port || st != stPort {
		t.Fatalf("backends disagree: %s %d %+v, portable %d %+v", vec.Backend(), got, st, port, stPort)
	}
	return got, st
}

func longScore(t *testing.T, query, subject *sequence.Sequence, p Params) int32 {
	t.Helper()
	q := profile.NewQuery(query.Residues, submat.BLOSUM62)
	got, _ := longPair(t, q, subject.Residues, p)
	return got
}

func TestIntraMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
	for trial := 0; trial < 200; trial++ {
		a := randProtein(rng, rng.Intn(70)+1)
		b := randProtein(rng, rng.Intn(70)+1)
		want := swalign.Score(a.Residues, b.Residues, sc)
		got := longScore(t, a, b, testParamsBase)
		if int(got) != want {
			t.Fatalf("trial %d: long path %d, oracle %d (|a|=%d |b|=%d)", trial, got, want, a.Len(), b.Len())
		}
	}
}

func TestIntraAsymmetricShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
	shapes := [][2]int{{1, 1}, {1, 50}, {50, 1}, {2, 300}, {300, 2}, {128, 128}, {37, 91}}
	for _, sh := range shapes {
		a := randProtein(rng, sh[0])
		b := randProtein(rng, sh[1])
		want := swalign.Score(a.Residues, b.Residues, sc)
		got := longScore(t, a, b, testParamsBase)
		if int(got) != want {
			t.Fatalf("shape %v: long path %d, oracle %d", sh, got, want)
		}
	}
}

// TestIntraEmptyInputs covers m = 0 and an empty subject.
func TestIntraEmptyInputs(t *testing.T) {
	q := profile.NewQuery(nil, submat.BLOSUM62)
	if got, _ := longPair(t, q, randProtein(rand.New(rand.NewSource(1)), 5).Residues, testParamsBase); got != 0 {
		t.Fatalf("empty query scored %d", got)
	}
	q2 := profile.NewQuery(randProtein(rand.New(rand.NewSource(2)), 5).Residues, submat.BLOSUM62)
	if got, _ := longPair(t, q2, nil, testParamsBase); got != 0 {
		t.Fatalf("empty subject scored %d", got)
	}
}

func TestIntraLargeScores(t *testing.T) {
	// Far beyond the int16 range the escalated pair must be exact.
	long := strings.Repeat("W", 4000)
	a := sequence.FromString("a", long)
	if got := longScore(t, a, a, testParamsBase); got != 11*4000 {
		t.Fatalf("long-path self-score %d, want %d", got, 11*4000)
	}
}

func TestIntraOtherPenalties(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for _, gp := range [][2]int{{0, 1}, {5, 0}, {14, 4}} {
		sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: gp[0], GapExtend: gp[1]}
		p := Params{Variant: IntrinsicSP, GapOpen: gp[0], GapExtend: gp[1]}
		q := profile.NewQuery(randProtein(rng, 60).Residues, submat.BLOSUM62)
		for trial := 0; trial < 30; trial++ {
			b := randProtein(rng, rng.Intn(80)+1)
			want := swalign.Score(q.Seq, b.Residues, sc)
			got, _ := longPair(t, q, b.Residues, p)
			if int(got) != want {
				t.Fatalf("q=%d r=%d trial %d: long path %d oracle %d", gp[0], gp[1], trial, got, want)
			}
		}
	}
}

func TestStripedMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
	for trial := 0; trial < 250; trial++ {
		a := randProtein(rng, rng.Intn(120)+1)
		b := randProtein(rng, rng.Intn(120)+1)
		want := swalign.Score(a.Residues, b.Residues, sc)
		got := longScore(t, a, b, testParamsBase)
		if int(got) != want {
			t.Fatalf("trial %d (|a|=%d |b|=%d): striped %d, oracle %d",
				trial, a.Len(), b.Len(), got, want)
		}
	}
}

// TestStripedShortQueries covers queries shorter than the lane count
// (heavy stripe padding) and lengths on both sides of stripe boundaries.
func TestStripedShortQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
	for _, m := range []int{1, 2, 7, 15, 16, 17, 31, 33, 47, 48, 49, 255, 257} {
		a := randProtein(rng, m)
		b := randProtein(rng, 60)
		want := swalign.Score(a.Residues, b.Residues, sc)
		got := longScore(t, a, b, testParamsBase)
		if int(got) != want {
			t.Fatalf("M=%d: striped %d, oracle %d", m, got, want)
		}
	}
}

func TestStripedGapHeavyPenalties(t *testing.T) {
	// Zero extension and zero open costs stress the lazy-F loop: gaps
	// propagate far (r=0 decays nothing within the pass cap; q=0 makes
	// refreshes as strong as decay).
	rng := rand.New(rand.NewSource(402))
	for _, gp := range [][2]int{{0, 1}, {12, 0}, {0, 0}, {1, 1}} {
		sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: gp[0], GapExtend: gp[1]}
		p := Params{Variant: IntrinsicSP, GapOpen: gp[0], GapExtend: gp[1]}
		for trial := 0; trial < 40; trial++ {
			a := randProtein(rng, rng.Intn(70)+1)
			b := randProtein(rng, rng.Intn(70)+1)
			want := swalign.Score(a.Residues, b.Residues, sc)
			got := longScore(t, a, b, p)
			if int(got) != want {
				t.Fatalf("q=%d r=%d trial %d: striped %d, oracle %d", gp[0], gp[1], trial, got, want)
			}
		}
	}
}

func TestStripedSaturationEscalation(t *testing.T) {
	// Self-alignment of a 3100-tryptophan repeat exceeds int16; the pair
	// must escalate to the 32-bit scalar routine exactly once.
	w := sequence.FromString("w", strings.Repeat("W", 3100))
	q := profile.NewQuery(w.Residues, submat.BLOSUM62)
	got, st := longPair(t, q, w.Residues, testParamsBase)
	if got != 11*3100 {
		t.Fatalf("striped saturated self-score %d, want %d", got, 11*3100)
	}
	if st.Overflows != 1 || st.OverflowCells != 3100*3100 {
		t.Fatalf("escalations %d over %d cells, want 1 over %d", st.Overflows, st.OverflowCells, 3100*3100)
	}
}

// TestStripedMatchesLaneKernel: the long path and the inter-task lane
// kernel agree on random pairs.
func TestStripedMatchesLaneKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	q := profile.NewQuery(randProtein(rng, 90).Residues, submat.BLOSUM62)
	prof := stripedProfile(q)
	buf := NewBuffers(vec.StripedLanes)
	lanes := NewBuffers(4)
	p := testParamsBase
	p.Variant = IntrinsicSP
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := randProtein(r, r.Intn(150)+1)
		var st Stats
		g := seqdb.New([]*sequence.Sequence{b}, true).Groups(4)[0]
		want, _ := AlignGroup(q, g, p, lanes)
		return alignPairLong(q, prof, b.Residues, p, buf, &st) == want[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEngineLongPathPrec8: 8-bit ladder searches route long subjects to
// the same 16-bit striped kernel, which never counts an 8-bit escalation.
func TestEngineLongPathPrec8(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	seqs := []*sequence.Sequence{
		randProtein(rng, 40),
		randProtein(rng, 3500), // routed to the long path
		randProtein(rng, 80),
	}
	db := seqdb.New(seqs, true)
	query := randProtein(rng, 60)
	want := oracleScores(db, query.Residues)
	e := testEngine(t, db)

	opt := defaultSearchOptions()
	opt.Prec = Prec8
	res, err := e.Search(query, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if int(res.Scores[i]) != want[i] {
			t.Fatalf("8-bit search: seq %d score %d, want %d", i, res.Scores[i], want[i])
		}
	}
	if res.Stats.IntraCells != int64(query.Len())*3500 {
		t.Fatalf("IntraCells = %d", res.Stats.IntraCells)
	}
}

func TestStripedEmpty(t *testing.T) {
	q := profile.NewQuery(nil, submat.BLOSUM62)
	var st Stats
	buf := NewBuffers(vec.StripedLanes)
	if got := alignPairLong(q, stripedProfile(q), randProtein(rand.New(rand.NewSource(1)), 10).Residues, testParamsBase, buf, &st); got != 0 {
		t.Fatalf("empty query: %d", got)
	}
}

// TestLongPathAllocFree pins the steady state: after a worker's first
// long pair has sized its scratch, every further pair of the query
// allocates nothing, on both backends.
func TestLongPathAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	q := profile.NewQuery(randProtein(rng, 300).Residues, submat.BLOSUM62)
	prof := stripedProfile(q)
	first, second := randProtein(rng, 3200), randProtein(rng, 3300)
	for _, portable := range []bool{false, true} {
		prev := vec.ForcePortable(portable)
		buf := NewBuffers(vec.StripedLanes)
		var st Stats
		alignPairLong(q, prof, first.Residues, testParamsBase, buf, &st)
		allocs := testing.AllocsPerRun(3, func() {
			alignPairLong(q, prof, second.Residues, testParamsBase, buf, &st)
		})
		vec.ForcePortable(prev)
		if allocs != 0 {
			t.Fatalf("%s: second long pair allocated %.1f times", vec.Backend(), allocs)
		}
	}
}

// TestEngineRoutesLongSequences verifies the end-to-end path: a database
// containing a sequence beyond the threshold must produce oracle-correct
// scores and account the work as intra-task cells.
func TestEngineRoutesLongSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	seqs := []*sequence.Sequence{
		randProtein(rng, 30),
		randProtein(rng, 3073), // just above DefaultLongSeqThreshold
		randProtein(rng, 100),
		randProtein(rng, 4000),
	}
	db := seqdb.New(seqs, true)
	query := randProtein(rng, 40)
	want := oracleScores(db, query.Residues)

	e := testEngine(t, db)
	res, err := e.Search(query, defaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if int(res.Scores[i]) != want[i] {
			t.Fatalf("seq %d (len %d): score %d, want %d", i, seqs[i].Len(), res.Scores[i], want[i])
		}
	}
	wantIntra := int64(query.Len()) * int64(3073+4000)
	if res.Stats.IntraCells != wantIntra {
		t.Fatalf("IntraCells = %d, want %d", res.Stats.IntraCells, wantIntra)
	}
	if res.Stats.Cells != int64(query.Len())*db.Residues() {
		t.Fatalf("Cells = %d", res.Stats.Cells)
	}

	// Disabling routing must give identical scores through the lane
	// kernels (with heavy padding).
	opt := defaultSearchOptions()
	opt.LongSeqThreshold = -1
	res2, err := e.Search(query, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res2.Scores[i] != res.Scores[i] {
			t.Fatalf("routing changed scores at %d: %d vs %d", i, res2.Scores[i], res.Scores[i])
		}
	}
	if res2.Stats.IntraCells != 0 {
		t.Fatalf("routing disabled but IntraCells = %d", res2.Stats.IntraCells)
	}
}

// TestLongestFirstOrder pins the execution order: long subjects first,
// longest first, then every lane group once.
func TestLongestFirstOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	seqs := []*sequence.Sequence{
		randProtein(rng, 3100),
		randProtein(rng, 10),
		randProtein(rng, 5000),
		randProtein(rng, 20),
		randProtein(rng, 4000),
	}
	e := testEngine(t, seqdb.New(seqs, true))
	part := e.partitionFor(4, DefaultLongSeqThreshold)
	ng := len(part.groups)
	if len(part.order) != ng+len(part.long) {
		t.Fatalf("order has %d items, want %d", len(part.order), ng+len(part.long))
	}
	var lens []int
	for _, i := range part.order[:len(part.long)] {
		if i < ng {
			t.Fatalf("lane group %d runs before a long subject: order %v", i, part.order)
		}
		lens = append(lens, e.DB().Seq(part.long[i-ng]).Len())
	}
	if len(lens) != 3 || lens[0] != 5000 || lens[1] != 4000 || lens[2] != 3100 {
		t.Fatalf("long subjects run in lengths %v, want [5000 4000 3100]", lens)
	}
	for k, i := range part.order[len(part.long):] {
		if i != k {
			t.Fatalf("lane groups out of item order: %v", part.order)
		}
	}
}

func TestPartitionRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	seqs := []*sequence.Sequence{
		randProtein(rng, 10),
		randProtein(rng, 5000),
		randProtein(rng, 20),
	}
	db := seqdb.New(seqs, true)
	groups, long := db.Partition(4, 3072)
	if len(long) != 1 || long[0] != 1 {
		t.Fatalf("long = %v, want [1]", long)
	}
	total := int64(0)
	for _, g := range groups {
		total += g.Residues
		if g.Width > 3072 {
			t.Fatalf("group width %d above threshold", g.Width)
		}
	}
	if total != 30 {
		t.Fatalf("groups hold %d residues, want 30", total)
	}
}
