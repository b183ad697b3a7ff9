// Command wallbench measures heterosw's host wall-clock performance end to
// end. It drives the library through its public functions (and, for the
// per-layer figures, the internal layers those functions are built from)
// and reports wall-clock numbers only; the device model's simulated GCUPS
// are not a metric here.
//
// One run executes one workload with one seed:
//
//	bash wallbench/run.sh --workload scan --seed 1 --seconds 14 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - scan: the paper's protocol, 20 paper-length queries planted into a
//     Swiss-Prot-shaped database, searched score-only as one batch by one
//     closed-loop caller.
//   - serve: open-loop HTTP traffic into an in-process swserve handler.
//   - fanout: a coordinator over two loopback shard nodes, two closed-loop
//     callers with distinct queries.
//
// With --trace 0 the run measures with tracing off and prints the
// end-to-end metrics. With --trace 1 it measures the workload untraced,
// then again with spans recorded around the benchmark's calls into each
// layer for every other request (scan: one traced pass between two
// untraced ones), reports the traced over the untraced latency of that
// interleaved stretch as the tracing overhead, probes each
// layer below the public API on the workload's own inputs, and prints the
// per-layer metrics, each span name's self time and the spans file. The
// last line of standard output is always the JSON result; every other
// line starts with "#".
//
// Every workload prints every end-to-end metric:
//
//   - setup_s: from inputs on disk to the first correct answer (index
//     open, split and node start-up where the workload has them, cluster
//     construction, probes, lazy lane packing), the median of setupReps.
//   - gcups and qps: useful cells (query length times database residues)
//     and completed queries per wall second. On scan they come from the
//     median 20-query pass, of at least scanMinPasses; on serve from the
//     median chunk of a closed-loop phase of the serving mix, the
//     server's capacity.
//   - latency_p50_ms and latency_p99_ms: the median and the highest
//     percentile with at least ten samples beyond it; each line states the
//     percentile and the sample count. On scan a sample is one pass, too
//     few for a tail percentile, so latency_p99_ms is the slowest pass.
//   - slo_rate_rps: on serve, the highest arrival rate whose tail latency
//     meets serveLimit with no growing backlog. A closed loop builds no
//     backlog, so on scan and fanout it is the completed rate, scaled
//     down by the overshoot if the tail misses the workload's limit.
//   - peak_rss_mb: the process's peak resident set.
//
// The benchmark is its own Go module, so the repository's go test ./...
// does not run its tests; run them with: cd wallbench && go test .
//
// error_rate (failed, refused or wrong answers over attempted) is the
// result line's failed/attempted and a "#" line; it is not a metric
// because it is zero on a correct run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"heterosw/internal/vec"
)

// metricDef names a metric with its unit. The lists below must match
// BENCHMARK.json; TestMetricsMatchBenchmarkJSON pins that.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"gcups", "GCUPS"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"slo_rate_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"kernel.group_gcups", "GCUPS"},
	{"kernel.padding_ratio", "ratio"},
	{"kernel.escalation_ratio", "ratio"},
	{"kernel.native_over_portable", "ratio"},
	{"kernel.long_gcups", "GCUPS"},
	{"kernel.long_cell_share", "ratio"},
	{"kernel.long_time_share", "ratio"},
	{"engine.gcups", "GCUPS"},
	{"engine.self_ms", "ms"},
	{"model.ms_per_query", "ms"},
	{"dispatch.over_engine", "ratio"},
	{"cluster.efficiency", "ratio"},
	{"report.align_ms", "ms"},
	{"report.evalue_ms", "ms"},
	{"qsched.mean_batch", "count"},
	{"qsched.cache_hit_share", "ratio"},
	{"qsched.join_share", "ratio"},
	{"qsched.wait_ms", "ms"},
	{"http.cached_p50_ms", "ms"},
	{"http.resp_bytes", "bytes"},
	{"remote.shard_rtt_ms", "ms"},
	{"remote.wire_ms", "ms"},
	{"remote.resp_bytes", "bytes"},
	{"remote.attempts_per_request", "count"},
	{"remote.over_inprocess", "ratio"},
	{"storage.index_open_ms", "ms"},
	{"storage.split_ms", "ms"},
	{"storage.partition_ms", "ms"},
	{"storage.first_query_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*runner) error{
	"scan":   runScan,
	"serve":  runServe,
	"fanout": runFanout,
}

// runner is the state of one benchmark run.
type runner struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// dir is this run's working directory inside the checkout.
	dir string

	ops   tally
	e2e   map[string]float64
	layer map[string]float64
	// samples is the sample count behind each end-to-end metric.
	samples map[string]int
}

// setE2E records an end-to-end metric with the samples it rests on.
func (r *runner) setE2E(name string, v float64, n int) {
	r.e2e[name], r.samples[name] = v, n
}

// logf prints a human-readable line; the JSON result is always last.
func logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: scan, serve or fanout")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 14, "measurement seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for generated inputs, builds and traces")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, dir string) error {
	drive, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have scan, serve, fanout)", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := checkBackend(vec.Info()); err != nil {
		return err
	}
	logf("workload %s seed %d seconds %g trace %v", workload, seed, seconds, traced)
	logf("env: nproc %d GOMAXPROCS %d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	logf("vec: %s", vec.Info())

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r := &runner{
		workload: workload, seed: seed, seconds: seconds, traced: traced, dir: work,
		e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{},
	}
	if err := drive(r); err != nil {
		return err
	}
	r.setE2E("peak_rss_mb", peakRSSMB(), 1)

	logf("error_rate %.6f (%d failed of %d attempted)", r.ops.errorRate(), r.ops.failed, r.ops.attempted)
	if r.ops.firstErr != nil {
		logf("first failure: %v", r.ops.firstErr)
	}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	out := resultJSON{
		Correct:   r.ops.failed == 0 && r.ops.attempted > 0,
		Attempted: r.ops.attempted,
		Failed:    r.ops.failed,
		Metrics:   map[string]metricJSON{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		out.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
		if n, ok := r.samples[d.Name]; ok && !traced {
			logf("metric %-28s %14.6f %-6s n=%d", d.Name, v, d.Unit, n)
			continue
		}
		logf("metric %-28s %14.6f %s", d.Name, v, d.Unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload %s did not measure %s", workload, strings.Join(missing, ", "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkBackend refuses to measure on the portable vector backend when the
// host supports AVX2, so a silently lost native backend cannot become a
// baseline.
func checkBackend(info vec.BackendInfo) error {
	if info.AVX2 && info.Backend == "portable" {
		return errors.New("host supports AVX2 but the portable vector backend is active")
	}
	return nil
}

// peakRSSMB reports the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// spansPath is where a traced run writes its spans; it sits next to the
// run's working directory so it survives the run.
func (r *runner) spansPath() string {
	return filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
}

// printLayers prints each span name's total and self time and writes the
// spans out.
func (r *runner) printLayers(tr *tracer) error {
	spans := tr.snapshot()
	for _, lt := range selfTimes(spans) {
		logf("layer %s", lt)
	}
	path := r.spansPath()
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	logf("spans: %d written to %s", len(spans), path)
	return nil
}
