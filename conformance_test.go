package heterosw

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"heterosw/internal/core"
	"heterosw/internal/datagen"
	"heterosw/internal/vec"
)

// The cross-path conformance harness: a FASTA-loaded database and a
// .swdb-loaded database must be indistinguishable through every entry
// point — Cluster.Search, SearchBatch, SearchScheduled, Stream.Submit and
// POST /search — for every kernel variant including the 8-bit ladder.
// Byte-identical here means the canonical JSON serialisations of the
// results are equal after zeroing host wall-clock fields (the only
// nondeterministic outputs); scores, hit order, alignments, E-values,
// simulated timing and per-backend accounting all participate.

// confDBSeqs is big enough for the Gumbel significance fit ("a few dozen
// sequences") and small enough that the full variant sweep stays fast.
const confDBSeqs = 96

// confSetup writes the shared conformance corpus once per test: a FASTA
// file, the .swdb index built from it, and two queries (one a planted
// fragment of a database sequence, one unrelated). With long set, the
// last three subjects are replaced by ~3600-residue ones, past the
// long-sequence threshold, so the striped long path serves them.
func confSetup(t *testing.T, long bool) (fastaPath, swdbPath string, queries []Sequence) {
	t.Helper()
	dir := t.TempDir()
	seqs := wrapSeqs(datagen.Generate(datagen.Config{
		Sequences: confDBSeqs, Seed: 4242, MeanLen: 90, SigmaLog: 0.5, MaxLen: 4000,
	}))
	if long {
		for i, s := range datagen.Generate(datagen.Config{Sequences: 3, Seed: 4243, MeanLen: 3600, SigmaLog: 0.05, MaxLen: 4000}) {
			if s.Len() <= core.DefaultLongSeqThreshold {
				t.Fatalf("long conformance subject has %d residues, not past the threshold", s.Len())
			}
			seqs[confDBSeqs-1-i] = NewSequence(fmt.Sprintf("LONG%d", i), s.String())
		}
	}
	fastaPath = filepath.Join(dir, "conf.fasta")
	if err := WriteFASTAFile(fastaPath, seqs); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	swdbPath = filepath.Join(dir, "conf.swdb")
	if err := WriteIndexFile(swdbPath, db); err != nil {
		t.Fatal(err)
	}
	// A fragment of a real subject guarantees a strong alignment; the
	// second query exercises the unrelated-noise path.
	donor := seqs[confDBSeqs/2]
	frag := donor.String()
	if len(frag) > 64 {
		frag = frag[:64]
	}
	queries = []Sequence{
		NewSequence("planted", frag),
		NewSequence("random", "MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPF"),
	}
	return fastaPath, swdbPath, queries
}

// canonResult strips the host wall-clock fields — the only legitimately
// machine-dependent outputs — and serialises the rest.
func canonResult(t *testing.T, res *ClusterResult) []byte {
	t.Helper()
	c := *res
	c.WallSeconds, c.WallGCUPS = 0, 0
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// confEntryPoints runs one (cluster, queries, report) tuple through every
// serving surface and returns the canonical bytes per entry point, in a
// fixed order. The cluster is closed afterwards.
func confEntryPoints(t *testing.T, cl *Cluster, queries []Sequence, rep ReportOptions) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, []byte("\n")) }

	// Cluster.Search, one call per query.
	var direct [][]byte
	for _, q := range queries {
		res, err := cl.Search(q, rep)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		direct = append(direct, canonResult(t, res))
	}
	out["Search"] = join(direct...)

	// SearchBatch over the whole query list.
	batch, err := cl.SearchBatch(queries, rep)
	if err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}
	var batched [][]byte
	for _, res := range batch {
		batched = append(batched, canonResult(t, res))
	}
	out["SearchBatch"] = join(batched...)

	// SearchScheduled through the serving scheduler.
	var scheduled [][]byte
	for _, q := range queries {
		res, err := cl.SearchScheduled(context.Background(), q, rep)
		if err != nil {
			t.Fatalf("SearchScheduled: %v", err)
		}
		scheduled = append(scheduled, canonResult(t, res))
	}
	out["SearchScheduled"] = join(scheduled...)

	// Stream.Submit with ordered delivery.
	st := cl.NewStream(context.Background())
	for _, q := range queries {
		if err := st.Submit(q, rep); err != nil {
			t.Fatalf("Stream.Submit: %v", err)
		}
	}
	st.Close()
	streamed := make([][]byte, 0, len(queries))
	for sr := range st.Results() {
		if sr.Err != nil {
			t.Fatalf("stream result %d: %v", sr.Index, sr.Err)
		}
		streamed = append(streamed, canonResult(t, sr.Result))
	}
	if len(streamed) != len(queries) {
		t.Fatalf("stream delivered %d results for %d queries", len(streamed), len(queries))
	}
	out["Stream"] = join(streamed...)

	// POST /search: compare the canonical HTTP response bodies.
	ts := httptest.NewServer(NewHTTPHandler(cl))
	var http [][]byte
	for _, q := range queries {
		resp, body := postJSON(t, ts.URL+"/search", map[string]any{
			"id":       q.ID(),
			"residues": q.String(),
			"top_k":    confTopK(rep),
			"align":    rep.Alignments,
			"evalue":   rep.EValues,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("POST /search: status %d: %s", resp.StatusCode, body)
		}
		var sr SearchJSON
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("POST /search body: %v", err)
		}
		sr.WallSeconds = 0
		raw, err := json.Marshal(&sr)
		if err != nil {
			t.Fatal(err)
		}
		http = append(http, raw)
	}
	ts.Close()
	out["HTTP"] = join(http...)

	cl.CloseNow()
	return out
}

// confTopK mirrors what the HTTP layer would resolve for the library-side
// report, so both surfaces request the same K.
func confTopK(rep ReportOptions) int {
	if rep.TopK > 0 {
		return rep.TopK
	}
	return defaultReportHits
}

// TestConformanceFASTAvsIndex is the harness table: every kernel variant
// (including both 8-bit ladder forms), the three distributions and the
// reporting phases, each asserted byte-identical between the FASTA load
// path and the .swdb load path on all five entry points.
func TestConformanceFASTAvsIndex(t *testing.T) {
	fastaPath, swdbPath, queries := confSetup(t, false)
	longFASTA, longSWDB, longQueries := confSetup(t, true)

	type confCase struct {
		name string
		opts ClusterOptions
		rep  ReportOptions
	}
	cases := []confCase{
		{"scalar-QP", ClusterOptions{Options: Options{Variant: VariantNoVecQP}}, ReportOptions{TopK: 5}},
		{"scalar-SP", ClusterOptions{Options: Options{Variant: VariantNoVecSP}}, ReportOptions{TopK: 5}},
		{"simd-QP", ClusterOptions{Options: Options{Variant: VariantGuidedQP}}, ReportOptions{TopK: 5}},
		{"simd-SP", ClusterOptions{Options: Options{Variant: VariantGuidedSP}}, ReportOptions{TopK: 5}},
		{"intrinsic-QP", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP}}, ReportOptions{TopK: 5}},
		{"intrinsic-SP", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}}, ReportOptions{TopK: 5}},
		{"ladder-QP-8bit", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP8}}, ReportOptions{TopK: 5}},
		{"ladder-SP-8bit", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP8}}, ReportOptions{TopK: 5}},
		{"dynamic-aligned", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "dynamic"},
			ReportOptions{TopK: 5, Alignments: true}},
		{"guided-evalue", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "guided"},
			ReportOptions{TopK: 5, Alignments: true, EValues: true}},
		{"ladder-striped-intra", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP8}, Dist: "dynamic"},
			ReportOptions{TopK: 5}},
		{"three-device", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Devices: []DeviceKind{DeviceXeon, DevicePhi, DevicePhi}},
			ReportOptions{TopK: 5}},
	}

	// Cases served from the corpus whose longest subjects pass the
	// long-sequence threshold, so the striped long path scores them.
	longCorpus := map[string]bool{"ladder-striped-intra": true}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fasta, swdb, queries := fastaPath, swdbPath, queries
			if longCorpus[tc.name] {
				fasta, swdb, queries = longFASTA, longSWDB, longQueries
			}
			results := make(map[string]map[string][]byte, 2)
			for _, load := range []struct{ kind, path string }{
				{"fasta", fasta},
				{"swdb", swdb},
			} {
				db, err := LoadDatabaseFile(load.path)
				if err != nil {
					t.Fatalf("%s: %v", load.kind, err)
				}
				if db.Len() != confDBSeqs {
					t.Fatalf("%s: %d sequences, want %d", load.kind, db.Len(), confDBSeqs)
				}
				cl, err := NewCluster(db, tc.opts)
				if err != nil {
					t.Fatalf("%s: %v", load.kind, err)
				}
				results[load.kind] = confEntryPoints(t, cl, queries, tc.rep)
			}
			for _, entry := range []string{"Search", "SearchBatch", "SearchScheduled", "Stream", "HTTP"} {
				f, s := results["fasta"][entry], results["swdb"][entry]
				if f == nil || s == nil {
					t.Fatalf("%s: missing surface output", entry)
				}
				if !bytes.Equal(f, s) {
					t.Errorf("%s: FASTA and swdb results diverge\n--- fasta ---\n%s\n--- swdb ---\n%s",
						entry, truncate(f), truncate(s))
				}
			}
		})
	}
}

// TestConformanceNativeVsPortable is the cross-backend leg of the same
// harness: on hosts where internal/vec selected the native AVX2 backend,
// every result served off the native column kernels must be byte-identical
// to the same search with the portable pure-Go loops forced — across the
// plain, 8-bit-ladder and full-reporting variants, on all five entry
// points. Skipped (vacuous) where the portable backend is the only one.
func TestConformanceNativeVsPortable(t *testing.T) {
	if !vec.Native() {
		t.Skipf("vec backend is %q; native vs portable conformance is vacuous", vec.Backend())
	}
	fastaPath, _, queries := confSetup(t, false)

	cases := []struct {
		name string
		opts ClusterOptions
		rep  ReportOptions
	}{
		{"intrinsic-SP", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}}, ReportOptions{TopK: 5}},
		{"intrinsic-QP", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP}}, ReportOptions{TopK: 5}},
		{"simd-SP", ClusterOptions{Options: Options{Variant: VariantGuidedSP}}, ReportOptions{TopK: 5}},
		{"ladder-SP-8bit", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP8}}, ReportOptions{TopK: 5}},
		{"ladder-QP-8bit", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP8}}, ReportOptions{TopK: 5}},
		{"aligned-evalue", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "dynamic"},
			ReportOptions{TopK: 5, Alignments: true, EValues: true}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results := make(map[string]map[string][]byte, 2)
			for _, backend := range []string{"native", "portable"} {
				if backend == "portable" {
					prev := vec.ForcePortable(true)
					defer vec.ForcePortable(prev)
				}
				db, err := LoadDatabaseFile(fastaPath)
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				cl, err := NewCluster(db, tc.opts)
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				results[backend] = confEntryPoints(t, cl, queries, tc.rep)
			}
			for _, entry := range []string{"Search", "SearchBatch", "SearchScheduled", "Stream", "HTTP"} {
				n, p := results["native"][entry], results["portable"][entry]
				if n == nil || p == nil {
					t.Fatalf("%s: missing surface output", entry)
				}
				if !bytes.Equal(n, p) {
					t.Errorf("%s: native and portable results diverge\n--- native ---\n%s\n--- portable ---\n%s",
						entry, truncate(n), truncate(p))
				}
			}
		})
	}
}

// confDNASetup mirrors confSetup for the nucleotide alphabet: a seeded
// synthetic DNA corpus (datagen only emits protein) written as FASTA and
// as a .swdb index, plus a planted-fragment query and an unrelated one.
func confDNASetup(t *testing.T) (fastaPath, swdbPath string, queries []Sequence) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7744))
	const bases = "ACGT"
	randDNA := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = bases[rng.Intn(4)]
		}
		return string(b)
	}
	seqs := make([]Sequence, confDBSeqs)
	for i := range seqs {
		seqs[i] = NewDNASequence(fmt.Sprintf("cd%02d", i), randDNA(60+rng.Intn(240)))
	}
	// A couple of soft-masked and ambiguous subjects keep the encoder's
	// lowercase and N paths inside the conformance surface.
	low := []byte(seqs[3].String())
	for i := 10; i < len(low) && i < 40; i++ {
		low[i] += 'a' - 'A'
	}
	seqs[3] = NewDNASequence(seqs[3].ID(), string(low))
	amb := []byte(seqs[9].String())
	amb[5], amb[15], amb[25] = 'N', 'R', 'Y'
	seqs[9] = NewDNASequence(seqs[9].ID(), string(amb))

	fastaPath = filepath.Join(dir, "conf_dna.fasta")
	if err := WriteFASTAFile(fastaPath, seqs); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	swdbPath = filepath.Join(dir, "conf_dna.swdb")
	if err := WriteIndexFile(swdbPath, db); err != nil {
		t.Fatal(err)
	}
	donor := seqs[confDBSeqs/2].String()
	if len(donor) > 64 {
		donor = donor[:64]
	}
	queries = []Sequence{
		NewDNASequence("planted", donor),
		NewDNASequence("random", randDNA(72)),
	}
	return fastaPath, swdbPath, queries
}

// TestConformanceDNAFASTAvsIndex extends the harness to the DNA alphabet:
// a nucleotide FASTA parsed under IUPAC-DNA and the .swdb built from it
// (which records the alphabet in its header) must be indistinguishable on
// every entry point, under the NUC match/mismatch matrix the cluster
// selects by default for DNA databases.
func TestConformanceDNAFASTAvsIndex(t *testing.T) {
	fastaPath, swdbPath, queries := confDNASetup(t)

	cases := []struct {
		name string
		opts ClusterOptions
		rep  ReportOptions
	}{
		{"scalar-SP", ClusterOptions{Options: Options{Variant: VariantNoVecSP}}, ReportOptions{TopK: 5}},
		{"intrinsic-SP", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}}, ReportOptions{TopK: 5}},
		{"intrinsic-QP", ClusterOptions{Options: Options{Variant: VariantIntrinsicQP}}, ReportOptions{TopK: 5}},
		{"ladder-SP-8bit", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP8}}, ReportOptions{TopK: 5}},
		{"dynamic-aligned-evalue", ClusterOptions{Options: Options{Variant: VariantIntrinsicSP}, Dist: "dynamic"},
			ReportOptions{TopK: 5, Alignments: true, EValues: true}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results := make(map[string]map[string][]byte, 2)
			for _, load := range []struct{ kind, path string }{
				{"fasta", fastaPath},
				{"swdb", swdbPath},
			} {
				// LoadDNADatabaseFile forces the DNA alphabet for the FASTA
				// text; the .swdb path must recover it from the header alone.
				var (
					db  *Database
					err error
				)
				if load.kind == "fasta" {
					db, err = LoadDNADatabaseFile(load.path)
				} else {
					db, err = LoadDatabaseFile(load.path)
				}
				if err != nil {
					t.Fatalf("%s: %v", load.kind, err)
				}
				if db.Alphabet() != "dna" {
					t.Fatalf("%s: alphabet %q, want dna", load.kind, db.Alphabet())
				}
				cl, err := NewCluster(db, tc.opts)
				if err != nil {
					t.Fatalf("%s: %v", load.kind, err)
				}
				results[load.kind] = confEntryPoints(t, cl, queries, tc.rep)
			}
			for _, entry := range []string{"Search", "SearchBatch", "SearchScheduled", "Stream", "HTTP"} {
				f, s := results["fasta"][entry], results["swdb"][entry]
				if f == nil || s == nil {
					t.Fatalf("%s: missing surface output", entry)
				}
				if !bytes.Equal(f, s) {
					t.Errorf("%s: FASTA and swdb results diverge\n--- fasta ---\n%s\n--- swdb ---\n%s",
						entry, truncate(f), truncate(s))
				}
			}
		})
	}
}

func truncate(b []byte) string {
	const lim = 1200
	if len(b) <= lim {
		return string(b)
	}
	return fmt.Sprintf("%s... (%d bytes)", b[:lim], len(b))
}
