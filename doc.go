// Package heterosw is a Smith-Waterman protein database search library for
// heterogeneous systems, reproducing Rucci et al., "Smith-Waterman
// Algorithm on Heterogeneous Systems: A Case Study" (IEEE CLUSTER 2014).
//
// The library provides:
//
//   - exact local alignment (Smith-Waterman with affine gaps) with
//     traceback for pairwise use — see Align, Score and ScoreBanded;
//   - a parallel database-search engine with the paper's six kernel
//     variants ({no-vec, guided-simd, intrinsic} x {query profile, score
//     profile}), cache blocking, an adaptive precision ladder (an 8-bit
//     biased first pass with twice the lanes per vector word, escalating
//     saturated lanes 8 -> 16 -> 32 bits; select it with the
//     "intrinsic-SP-8bit" / "intrinsic-QP-8bit" variant names), and a
//     native striped intra-task kernel for subjects longer than 3072
//     residues (Options.LongSeqThreshold), which the search runs first,
//     longest first — see Database.Search;
//   - the heterogeneous CPU+coprocessor execution of the paper's
//     Algorithm 2, with a static workload split and overlapped offload —
//     see Database.SearchHetero;
//   - an N-device cluster dispatcher generalising Algorithm 2 to any
//     roster of modelled devices, with static (residue split), dynamic
//     and guided (device-level chunk queue) workload distributions,
//     batched multi-query search and a streaming Submit/Results pipeline
//     — see NewCluster, Cluster.Search, Cluster.SearchBatch and
//     Cluster.Submit;
//   - a concurrent micro-batching query scheduler behind every streaming
//     and serving path: submissions coalesce into adaptive micro-batches,
//     several batches run in flight, identical queries share one
//     execution and repeats come from a cluster-wide LRU cache — see
//     Cluster.NewStream, Cluster.SearchScheduled and the cmd/swserve
//     HTTP front end;
//   - two-phase aligned-hit reporting: after the vectorised score pass
//     selects the top-K hits, a traceback phase re-aligns the query
//     against just those K subjects across the roster and decorates each
//     hit with coordinates, a CIGAR, identity counts and (optionally) a
//     bit score and E-value from a Gumbel null model fitted over the full
//     score distribution — see ReportOptions, Hit.Alignment,
//     Hit.Significance and WriteReport;
//   - a native AVX2 vector backend for the kernels' SIMD primitive set
//     (internal/vec): on amd64 hosts with AVX2 the inter-task kernels run
//     hand-written assembly column steps (16x int16 / 32x uint8 lanes per
//     256-bit register) selected by runtime CPU detection, with the
//     portable pure-Go loops as the verified fallback everywhere else —
//     set HETEROSW_VEC=portable (or build with -tags purego) to force
//     the portable backend; both backends return bit-identical scores;
//   - deterministic performance models of the paper's two devices (dual
//     Xeon E5-2670 host, 60-core Xeon Phi) that report simulated GCUPS
//     alongside the real wall-clock throughput of the Go kernels;
//   - a synthetic Swiss-Prot workload generator matching the statistics of
//     the paper's benchmark database, plus FASTA I/O for real data;
//   - a persistent preprocessed database format (.swdb): a versioned,
//     checksummed binary image of the fully preprocessed database that
//     loads by mmap and zero-copy slicing — no parse, no sort, no
//     per-sequence copies — see WriteIndexFile, OpenIndexFile and
//     LoadDatabaseFile, and the cmd/swindex CLI;
//   - genomics workloads over a generic alphabet layer: nucleotide
//     database search under the IUPAC DNA alphabet with match/mismatch
//     scoring (NewDNASequence, ReadDNAFASTAFile, LoadDNADatabaseFile),
//     blastx-style six-frame translated search of DNA queries against
//     protein databases with per-hit frames and DNA coordinates
//     (Cluster.SearchTranslated), user-supplied substitution matrices in
//     NCBI textual form (Options.MatrixText, Cluster.SearchMatrix, the
//     ErrBadMatrix error family), and SAM 1.6 / BLAST tabular output of
//     aligned results (WriteFormat, swsearch -outfmt, the format field
//     on POST /search);
//   - distributed multi-node serving over .swdb shards: swindex split
//     cuts a parent index into shard indexes plus a manifest,
//     NewShardServer serves the shard execution protocol on each node,
//     and NewDistributedCluster mounts the shards as remote backends on
//     an ordinary *Cluster — scores merge back into parent order and
//     E-values fit over the union distribution, so results are
//     byte-identical to a single-node search of the unsplit database,
//     with per-attempt timeouts, 503-only retries with exponential
//     backoff across replicas, and hedged requests for tail latency —
//     see NewDistributedCluster, DistributedOptions, NewShardServer and
//     SplitIndexFile.
//
// # The persistent database index
//
// NewDatabase pays the full preprocessing cost — FASTA parse, residue
// encoding, the length sort — on every construction. WriteIndexFile
// persists the finished product as a .swdb image (internal/seqdb/index
// documents the exact layout); OpenIndexFile restores it with O(1) work
// per sequence, and LoadDatabaseFile accepts either representation,
// sniffed by magic, which is what every -db CLI flag uses:
//
//	db, err := heterosw.LoadDatabaseFile("swissprot.swdb") // or .fasta
//	cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{...})
//
// A corrupted or truncated index fails to open with an error wrapping
// ErrBadIndex — never a panic — and a checksum-derived identity key lets
// shards split from the same index share backend engines across loads.
// Loading from .swdb and loading from FASTA are conformant: every entry
// point returns byte-identical results over either path (pinned by the
// conformance harness for all kernel variants, including the 8-bit
// ladder).
//
// # Quick start
//
//	db, queries := heterosw.SyntheticSwissProt(0.01, true)
//	res, err := db.Search(queries[0], heterosw.Options{TopK: 10})
//	if err != nil { ... }
//	for _, h := range res.Hits {
//	    fmt.Println(h.ID, h.Score)
//	}
//
// # Cluster search
//
// The paper statically splits the database between exactly one Xeon and
// one Xeon Phi and names a dynamic distribution strategy as future work.
// NewCluster builds that future work: a dispatcher over any device roster,
// with the static split reproducing Algorithm 2 exactly when the roster is
// {xeon, phi}, and a work-stealing chunk queue ("dynamic"/"guided") that
// lets idle devices claim lane-group chunks as they drain:
//
//	cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{
//	    Devices: []heterosw.DeviceKind{heterosw.DeviceXeon, heterosw.DevicePhi, heterosw.DevicePhi},
//	    Dist:    "dynamic",
//	})
//	results, err := cl.SearchBatch(queries) // amortises pre-processing
//
// # Streaming and serving
//
// Streams deliver results in submission order whatever order the
// concurrent micro-batches complete in; Submit never blocks, and a
// bounded forwarding window keeps completed-result memory finite however
// far the producer runs ahead of the consumer. Close drains
// gracefully; CloseNow — or cancelling the NewStream context — drops
// queued work, aborts in-flight batches at their next query boundary and
// closes Results, so an abandoned consumer never strands a worker:
//
//	st := cl.NewStream(ctx)
//	for _, q := range queries { st.Submit(q) }
//	st.Close()
//	for sr := range st.Results() { ... } // sr.Index is the submission order
//
// SearchScheduled is the one-call serving entry point (used by the
// cmd/swserve HTTP server): concurrent callers coalesce into micro-batches
// and repeated queries are answered from the cluster's LRU result cache.
// ClusterOptions.MaxInFlight, BatchWindow, MaxBatch and CacheSize tune the
// scheduler.
//
// # Aligned-hit reporting
//
// Every Cluster entry point — Search, SearchBatch, SearchScheduled and
// Stream.Submit — accepts an optional trailing ReportOptions selecting
// the two-phase reporting pipeline of production search services (the
// SSW Library's score-then-traceback design): phase one is the vectorised
// score pass over the whole database, phase two re-aligns the query
// against only the top-K hits, fanned out across the cluster roster:
//
//	res, err := cl.Search(query, heterosw.ReportOptions{
//	    Alignments: true, // coordinates, CIGAR, identities per hit
//	    EValues:    true, // bit score + E-value from a fitted null model
//	    TopK:       10,   // K: the number of hits reported and aligned
//	})
//	for _, h := range res.Hits {
//	    fmt.Println(h.ID, h.Score, h.Alignment.CIGAR, h.Significance.EValue)
//	}
//
// The traceback phase only ever aligns K sequences, never the full
// database. Report options are part of the scheduler's dedup/cache key,
// so an aligned result and a score-only result of the same query never
// alias. WriteReport renders a decorated result as a BLAST-style text
// report (swsearch -blast); WriteFormat adds SAM 1.6 and BLAST tabular
// TSV renderings (swsearch -outfmt sam|tsv); the HTTP front end exposes
// the same phases as the align, evalue and format request fields.
//
// # Alphabets and translated search
//
// Databases and queries carry their alphabet. FASTA parsed through the
// DNA entry points (ReadDNAFASTAFile, LoadDNADatabaseFile, swsearch
// -dna) encodes under the 15-letter IUPAC nucleotide alphabet — case
// insensitive, with unrecognised bytes becoming N — and searches default
// to the blastn-style NUC +2/-3 matrix; .swdb indexes persist the
// alphabet and restore it on load. SearchTranslated searches a DNA query
// against a protein database in all six reading frames and merges the
// per-frame results, reporting each hit's winning frame and the aligned
// region's forward-strand DNA coordinates. SearchMatrix (and the
// MatrixText option, the -matrixfile flag and the HTTP matrix field)
// scores one request with a user matrix parsed from NCBI textual form;
// rejected matrix text wraps ErrBadMatrix.
//
// # Tools
//
// The cmd/swindex tool builds, inspects and shards .swdb indexes
// (swindex build db.fasta -o db.swdb; swindex split db.swdb -n 4);
// cmd/swbench regenerates every figure of the
// paper's evaluation and compares distribution strategies over arbitrary
// rosters (-devices xeon,phi,phi -dist dynamic), planning over a real
// database with -db; cmd/swserve fronts a cluster with the JSON search
// API (/search, /batch, /healthz) — give it a .swdb and restarts are
// near-instant, a -shards node and a -manifest/-nodes coordinator make
// it multi-node — and examples/loadgen load-tests it. README.md is the
// system inventory; wallbench/ measures the library end to end in wall
// clock time.
package heterosw
