package heterosw

import (
	"strings"
	"testing"
)

func tinyDB(t *testing.T) (*Database, []Sequence) {
	t.Helper()
	seqs := []Sequence{
		NewSequence("s1", "MKWVLAARND"),
		NewSequence("s2", "CCQEGHIL"),
		NewSequence("s3", "MKWVLA"),
		NewSequence("s4", "WYVKMF"),
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	return db, seqs
}

func TestSearchDefaults(t *testing.T) {
	db, _ := tinyDB(t)
	res, err := db.Search(NewSequence("q", "MKWVLA"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 4 || len(res.Scores) != 4 {
		t.Fatalf("hits %d scores %d", len(res.Hits), len(res.Scores))
	}
	// The best hit must be one of the sequences containing MKWVLA.
	if res.Hits[0].ID != "s1" && res.Hits[0].ID != "s3" {
		t.Fatalf("top hit %q", res.Hits[0].ID)
	}
	for i := 1; i < len(res.Hits); i++ {
		if res.Hits[i].Score > res.Hits[i-1].Score {
			t.Fatal("hits not sorted")
		}
	}
	if res.SimGCUPS <= 0 || res.SimSeconds <= 0 {
		t.Fatalf("timing: %+v", res)
	}
	if res.Threads != 32 { // Xeon default
		t.Fatalf("threads = %d", res.Threads)
	}
}

func TestSearchAllVariantsAgree(t *testing.T) {
	db, _ := tinyDB(t)
	q := NewSequence("q", "MKWVLARN")
	var want []int
	for _, v := range Variants() {
		res, err := db.Search(q, Options{Variant: v, Device: DevicePhi})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if want == nil {
			want = res.Scores
			continue
		}
		for i := range want {
			if res.Scores[i] != want[i] {
				t.Fatalf("%s: score %d differs: %d vs %d", v, i, res.Scores[i], want[i])
			}
		}
	}
}

func TestSearchOptionErrors(t *testing.T) {
	db, _ := tinyDB(t)
	q := NewSequence("q", "MKWVLA")
	cases := []Options{
		{Variant: "avx512-madness"},
		{Matrix: "BLOSUM13"},
		{Schedule: "fifo"},
		{Device: "gpu"},
		{Threads: 10000},
	}
	for i, opt := range cases {
		if _, err := db.Search(q, opt); err == nil {
			t.Errorf("case %d accepted: %+v", i, opt)
		}
	}
	if _, err := db.Search(Sequence{}, Options{}); err == nil {
		t.Error("zero-value query accepted")
	}
	if _, err := NewDatabase([]Sequence{{}}); err == nil {
		t.Error("zero-value database sequence accepted")
	}
}

func TestSearchHetero(t *testing.T) {
	db, _ := tinyDB(t)
	q := NewSequence("q", "MKWVLA")
	single, err := db.Search(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	het, err := db.SearchHetero(q, HeteroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range single.Scores {
		if het.Scores[i] != single.Scores[i] {
			t.Fatalf("hetero score %d differs", i)
		}
	}
	if het.PhiShare <= 0 || het.CPUShare <= 0 {
		t.Fatalf("shares: %+v", het)
	}
	if het.SimSeconds != max(het.CPUSeconds, het.PhiSeconds) {
		t.Fatalf("SimSeconds %v != max(%v, %v)", het.SimSeconds, het.CPUSeconds, het.PhiSeconds)
	}
	if _, err := db.SearchHetero(q, HeteroOptions{PhiShare: 2}); err == nil {
		t.Error("PhiShare 2 accepted")
	}
}

// NoShareDefault makes a literal zero coprocessor share expressible
// without the legacy negative sentinel, while zero-value options keep the
// paper's 0.55 default.
func TestHeteroNoShareDefault(t *testing.T) {
	db, seqs := tinyDB(t)
	q := seqs[0]
	zero, err := db.SearchHetero(q, HeteroOptions{NoShareDefault: true})
	if err != nil {
		t.Fatal(err)
	}
	if zero.PhiShare != 0 || zero.CPUShare != 1 {
		t.Fatalf("explicit zero share realised as %+v", zero)
	}
	if zero.PhiSeconds != 0 {
		t.Fatalf("Phi busy %v with a zero share", zero.PhiSeconds)
	}
	// The legacy sentinel still works for existing callers...
	legacy, err := db.SearchHetero(q, HeteroOptions{PhiShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.PhiShare != 0 {
		t.Fatalf("legacy sentinel realised as %+v", legacy)
	}
	// ...but is rejected when the explicit mode is on.
	if _, err := db.SearchHetero(q, HeteroOptions{PhiShare: -1, NoShareDefault: true}); err == nil {
		t.Error("negative share accepted with NoShareDefault")
	}
	// A set share behaves identically in both modes.
	a, err := db.SearchHetero(q, HeteroOptions{PhiShare: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.SearchHetero(q, HeteroOptions{PhiShare: 0.4, NoShareDefault: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.PhiShare != b.PhiShare || a.Scores[0] != b.Scores[0] {
		t.Fatalf("explicit mode changed a set share: %v vs %v", a.PhiShare, b.PhiShare)
	}
	// Zero-value options still mean the paper's 0.55.
	def, err := db.SearchHetero(q, HeteroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if def.PhiShare == 0 {
		t.Fatal("zero-value options lost the paper default")
	}
}

func TestAlignAPI(t *testing.T) {
	a := NewSequence("a", "MKWVLAARND")
	b := NewSequence("b", "GGMKWVLAGG")
	al, err := Align(a, b, AlignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Score(a, b, AlignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if al.Score() != sc {
		t.Fatalf("Align %d != Score %d", al.Score(), sc)
	}
	if al.Identities() < 6 {
		t.Fatalf("identities %d", al.Identities())
	}
	if !strings.Contains(al.CIGAR(), "M") {
		t.Fatalf("CIGAR %q", al.CIGAR())
	}
	aS, aE, bS, bE := al.Coordinates()
	if aE <= aS || bE <= bS {
		t.Fatalf("coordinates %d %d %d %d", aS, aE, bS, bE)
	}
	if al.Format(40) == "" {
		t.Fatal("empty Format")
	}
	banded, err := ScoreBanded(a, b, 2, 3, AlignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if banded > sc {
		t.Fatalf("banded %d > full %d", banded, sc)
	}
	if _, err := Align(Sequence{}, b, AlignOptions{}); err == nil {
		t.Error("zero-value sequence accepted")
	}
	if _, err := Score(a, b, AlignOptions{Matrix: "nope"}); err == nil {
		t.Error("bad matrix accepted")
	}
}

func TestSyntheticSwissProt(t *testing.T) {
	db, queries := SyntheticSwissProt(0.001, true)
	if db.Len() < 500 {
		t.Fatalf("db too small: %d", db.Len())
	}
	if len(queries) != 20 {
		t.Fatalf("%d queries", len(queries))
	}
	lengths := PaperQueryLengths()
	if queries[0].Len() != lengths[0] || queries[19].Len() != lengths[19] {
		t.Fatal("query lengths mismatch")
	}
	// A planted query's top hit must be itself (perfect score).
	res, err := db.Search(queries[0], Options{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[0].ID != queries[0].ID() {
		t.Fatalf("top hit %q, want planted %q", res.Hits[0].ID, queries[0].ID())
	}
}

func TestFASTARoundTripAPI(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/x.fasta"
	seqs := []Sequence{NewSequence("a", "ARND"), NewSequence("b", "WWYV")}
	if err := WriteFASTAFile(path, seqs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTAFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].String() != "ARND" || back[1].ID() != "b" {
		t.Fatalf("round trip: %+v", back)
	}
	if _, err := ReadFASTA(strings.NewReader(">x\nMKV\n")); err != nil {
		t.Fatal(err)
	}
}

func TestDevicesInfo(t *testing.T) {
	devs := Devices()
	if len(devs) != 2 {
		t.Fatalf("%d devices", len(devs))
	}
	if devs[0].Kind != DeviceXeon || devs[0].Threads != 32 {
		t.Fatalf("xeon info: %+v", devs[0])
	}
	if devs[1].Kind != DevicePhi || devs[1].Threads != 240 || devs[1].Lanes != 32 {
		t.Fatalf("phi info: %+v", devs[1])
	}
}

func TestUnsortedDatabase(t *testing.T) {
	seqs := []Sequence{NewSequence("a", "AR"), NewSequence("b", "ARNDCQEG")}
	db, err := NewDatabaseUnsorted(seqs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Search(NewSequence("q", "ARND"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 2 {
		t.Fatalf("%d hits", len(res.Hits))
	}
}

func TestSequenceBasics(t *testing.T) {
	s := NewSequence("id1", "mkwvla")
	if s.ID() != "id1" || s.Len() != 6 || s.String() != "MKWVLA" {
		t.Fatalf("%q %d %q", s.ID(), s.Len(), s.String())
	}
	sub := s.Slice(1, 4)
	if sub.String() != "KWV" {
		t.Fatalf("slice %q", sub.String())
	}
	var zero Sequence
	if zero.ID() != "" || zero.Len() != 0 || zero.String() != "" || zero.Description() != "" {
		t.Fatal("zero value misbehaves")
	}
}

func TestSignificanceAPI(t *testing.T) {
	db, queries := SyntheticSwissProt(0.002, true)
	res, err := db.Search(queries[4], Options{})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := res.FitSignificance(0)
	if err != nil {
		t.Fatal(err)
	}
	// The planted self-hit must be overwhelmingly significant.
	if e := sig.EValue(res.Hits[0].Score); e > 1e-6 {
		t.Fatalf("self-hit EValue %v", e)
	}
	// A mid-distribution score is unremarkable.
	mid := res.Scores[len(res.Scores)/2]
	if e := sig.EValue(mid); e < 1 {
		t.Fatalf("median score EValue %v, want >> 1", e)
	}
	if sig.BitScore(res.Hits[0].Score) <= sig.BitScore(mid) {
		t.Fatal("bit score ordering broken")
	}
	if sig.PValue(res.Hits[0].Score) > sig.PValue(mid) {
		t.Fatal("p-value ordering broken")
	}
	if sig.String() == "" {
		t.Fatal("empty model description")
	}
}

func TestAutoSplitAPI(t *testing.T) {
	db, queries := SyntheticSwissProt(0.002, true)
	res, err := db.SearchHetero(queries[4], HeteroOptions{AutoSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PhiShare <= 0 || res.PhiShare >= 1 {
		t.Fatalf("auto split share %v", res.PhiShare)
	}
	single, err := db.Search(queries[4], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range single.Scores {
		if res.Scores[i] != single.Scores[i] {
			t.Fatalf("auto-split scores differ at %d", i)
		}
	}
}

// TestStripedIntraAPIEquivalence: subjects past the long-sequence
// threshold take the striped intra-task kernel; with routing disabled the
// same subjects run through the lane kernels, and every score must agree,
// on the 16-bit and the 8-bit first pass alike.
func TestStripedIntraAPIEquivalence(t *testing.T) {
	long := make([]byte, 3300)
	for i := range long {
		long[i] = "ARNDCQEGHILKMFPSTWYV"[i%20]
	}
	seqs := []Sequence{
		NewSequence("long", string(long)),
		NewSequence("short", "MKWVLAARND"),
		NewSequence("longer", string(long)+string(long[:900])),
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSequence("q", string(long[100:400]))
	for _, v := range []string{VariantIntrinsicSP, VariantIntrinsicSP8} {
		striped, err := db.Search(q, Options{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		lanes, err := db.Search(q, Options{Variant: v, LongSeqThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range lanes.Scores {
			if striped.Scores[i] != lanes.Scores[i] {
				t.Fatalf("%s: long path and lane kernels disagree at %d: %d vs %d", v, i, striped.Scores[i], lanes.Scores[i])
			}
		}
	}
}

// The "-8bit" variant spec must run the precision ladder end to end:
// identical scores, per-tier overflow accounting, and twice the lanes on
// every device model.
func TestSearchLadderVariant(t *testing.T) {
	db, _ := tinyDB(t)
	q := NewSequence("q", "MKWVLA")
	ref, err := db.Search(q, Options{Variant: VariantIntrinsicSP})
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{VariantIntrinsicSP8, VariantIntrinsicQP8} {
		for _, dev := range []DeviceKind{DeviceXeon, DevicePhi} {
			got, err := db.Search(q, Options{Variant: variant, Device: dev})
			if err != nil {
				t.Fatalf("%s on %s: %v", variant, dev, err)
			}
			for i := range ref.Scores {
				if got.Scores[i] != ref.Scores[i] {
					t.Fatalf("%s on %s: seq %d score %d, want %d", variant, dev, i, got.Scores[i], ref.Scores[i])
				}
			}
			if got.Overflows8 != 0 || got.Overflows != 0 {
				t.Fatalf("%s on %s: unexpected escalations %d/%d on a tiny database", variant, dev, got.Overflows8, got.Overflows)
			}
		}
	}

	// A subject over the biased byte rail escalates once; the counter
	// surfaces at the API level.
	sat, err := NewDatabase([]Sequence{
		NewSequence("sat", strings.Repeat("W", 23)),
		NewSequence("tiny", "ARND"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sat.Search(NewSequence("q", strings.Repeat("W", 23)), Options{Variant: VariantIntrinsicSP8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] != 11*23 {
		t.Fatalf("saturating subject scored %d, want %d", res.Scores[0], 11*23)
	}
	if res.Overflows8 != 1 || res.Overflows != 0 {
		t.Fatalf("escalations %d/%d, want 1/0", res.Overflows8, res.Overflows)
	}

	// The suffix is rejected on non-intrinsic variants.
	if _, err := db.Search(q, Options{Variant: "simd-SP-8bit"}); err == nil {
		t.Fatal("simd-SP-8bit accepted")
	}
}
