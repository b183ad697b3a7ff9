// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark artifact, so CI can publish machine-readable performance data
// points (GCUPS and queries/s) per commit and the perf trajectory of the
// repository has actual data behind it — and diffs two such artifacts so
// CI can fail on a throughput regression.
//
// Usage:
//
//	go test -run '^$' -bench 'Kernel|Stream' -benchtime=1x . | benchjson -out BENCH.json
//	benchjson -diff [-max-regress 0.20] [-max-regress-wall 0.50] BENCH_old.json BENCH_new.json
//
// Standard ns/op values and every custom metric (Mcells/s, sim-GCUPS,
// queries/s, ...) are carried through verbatim; two normalised fields,
// gcups and queries_per_sec, are derived where the metrics allow so
// downstream tooling does not need to know each benchmark's unit. A
// gcups_source field records whether the normalised value came from a
// deterministic simulated metric ("sim") or from host wall time ("wall").
//
// Diff mode compares the gcups of benchmarks present in both artifacts
// and lists each baseline benchmark the new artifact lacks as missing.
// "sim"-sourced values come from the device models and are identical on
// any machine, so any drop beyond -max-regress is a real cost-model or
// kernel regression. "wall"-sourced values measure host throughput —
// since the native vector backend landed they gate too, against the
// looser -max-regress-wall threshold: runner-to-runner noise is real but
// bounded, while losing the native backend (a mis-detected CPU feature, a
// dispatch regression) costs an order of magnitude and must fail CI. Pass
// a negative -max-regress-wall to restore info-only wall reporting. The
// exit status is 1 when any gated benchmark regressed beyond its
// threshold (fractions; 0.20 = 20%).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	// GCUPS is derived from a GCUPS-valued metric (sim-GCUPS, GCUPS) or a
	// Mcells/s metric divided by 1000; QueriesPerSec from a queries/s
	// metric. Zero when the benchmark reports neither.
	GCUPS         float64 `json:"gcups,omitempty"`
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
	// GCUPSSource is "sim" when GCUPS came from a simulated device-model
	// metric (deterministic across machines) and "wall" when it came from
	// host wall-clock throughput; empty when GCUPS is zero.
	GCUPSSource string `json:"gcups_source,omitempty"`
}

// Artifact is the emitted document.
type Artifact struct {
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parseLine parses one "BenchmarkName-P  N  v1 u1  v2 u2 ..." line,
// returning ok=false for non-benchmark lines.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       strings.SplitN(fields[0], "-", 2)[0],
		Iterations: iters,
		Metrics:    make(map[string]float64),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		b.Metrics[unit] = v
		switch {
		case unit == "GCUPS" || strings.HasSuffix(unit, "-GCUPS"):
			// Simulated metrics always win over wall-derived ones. The
			// figure benchmarks' plain "GCUPS" is device-model output too.
			b.GCUPS = v
			if strings.HasPrefix(unit, "wall") {
				b.GCUPSSource = "wall"
			} else {
				b.GCUPSSource = "sim"
			}
		case unit == "Mcells/s" || strings.HasSuffix(unit, "-McUPS"):
			if b.GCUPSSource != "sim" {
				b.GCUPS = v / 1000
				b.GCUPSSource = "wall"
			}
		case unit == "queries/s":
			b.QueriesPerSec = v
		}
	}
	return b, true
}

func readArtifact(path string) (*Artifact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art Artifact
	if err := json.Unmarshal(raw, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &art, nil
}

// diff writes the comparison of two artifacts on the benchmarks they share to w: "sim"-sourced
// gcups gate at maxRegress, "wall"-sourced at maxRegressWall (negative
// disables wall gating). Each baseline benchmark absent from the new
// artifact prints as "missing", so a deleted or renamed benchmark leaves
// a trace in the report; a missing one is not gated. It returns the
// number of gated regressions.
func diff(w io.Writer, oldArt, newArt *Artifact, maxRegress, maxRegressWall float64) int {
	oldBy := make(map[string]Benchmark, len(oldArt.Benchmarks))
	for _, b := range oldArt.Benchmarks {
		oldBy[b.Name] = b
	}
	names := make([]string, 0, len(newArt.Benchmarks))
	for _, b := range newArt.Benchmarks {
		if _, ok := oldBy[b.Name]; ok {
			names = append(names, b.Name)
		}
	}
	sort.Strings(names)
	newBy := make(map[string]Benchmark, len(newArt.Benchmarks))
	for _, b := range newArt.Benchmarks {
		newBy[b.Name] = b
	}
	regressions := 0
	fmt.Fprintf(w, "%-40s %12s %12s %8s  %s\n", "benchmark", "old gcups", "new gcups", "delta", "verdict")
	for _, name := range names {
		o, n := oldBy[name], newBy[name]
		if o.GCUPS == 0 || n.GCUPS == 0 {
			continue
		}
		delta := (n.GCUPS - o.GCUPS) / o.GCUPS
		verdict := "ok"
		switch {
		case o.GCUPSSource != "sim" || n.GCUPSSource != "sim":
			switch {
			case maxRegressWall < 0:
				verdict = "info (wall-clock, not gated)"
			case delta < -maxRegressWall:
				verdict = fmt.Sprintf("REGRESSION (wall, > %.0f%%)", maxRegressWall*100)
				regressions++
			default:
				verdict = "ok (wall)"
			}
		case delta < -maxRegress:
			verdict = fmt.Sprintf("REGRESSION (> %.0f%%)", maxRegress*100)
			regressions++
		}
		fmt.Fprintf(w, "%-40s %12.3f %12.3f %+7.1f%%  %s\n", name, o.GCUPS, n.GCUPS, delta*100, verdict)
	}
	var missing []string
	for name := range oldBy {
		if _, ok := newBy[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "%-40s %12.3f %12s %8s  %s\n", name, oldBy[name].GCUPS, "-", "-", "missing")
	}
	return regressions
}

func main() {
	out := flag.String("out", "", "output file (stdout when empty)")
	diffMode := flag.Bool("diff", false, "compare two artifacts: benchjson -diff old.json new.json")
	maxRegress := flag.Float64("max-regress", 0.20, "with -diff: maximum tolerated fractional drop in simulated GCUPS")
	maxRegressWall := flag.Float64("max-regress-wall", 0.50, "with -diff: maximum tolerated fractional drop in wall-clock GCUPS (negative = info only)")
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two artifact paths")
			os.Exit(2)
		}
		oldArt, err := readArtifact(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		newArt, err := readArtifact(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if n := diff(os.Stdout, oldArt, newArt, *maxRegress, *maxRegressWall); n > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d GCUPS regression(s) beyond threshold (sim %.0f%%, wall %.0f%%)\n",
				n, *maxRegress*100, *maxRegressWall*100)
			os.Exit(1)
		}
		return
	}

	art := Artifact{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			art.Benchmarks = append(art.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	raw, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if *out == "" {
		os.Stdout.Write(raw)
		return
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(art.Benchmarks), *out)
}
