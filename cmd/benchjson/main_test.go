package main

import (
	"strings"
	"testing"
)

func art(bs ...Benchmark) *Artifact { return &Artifact{GOOS: "linux", GOARCH: "amd64", Benchmarks: bs} }

func sim(name string, gcups float64) Benchmark {
	return Benchmark{Name: name, GCUPS: gcups, GCUPSSource: "sim"}
}

func wall(name string, gcups float64) Benchmark {
	return Benchmark{Name: name, GCUPS: gcups, GCUPSSource: "wall"}
}

// line returns the report line of one benchmark, failing if it is absent.
func line(t *testing.T, report, name string) string {
	t.Helper()
	for _, l := range strings.Split(report, "\n") {
		if strings.HasPrefix(l, name+" ") {
			return l
		}
	}
	t.Fatalf("no report line for %s in:\n%s", name, report)
	return ""
}

func TestDiffVerdicts(t *testing.T) {
	oldArt := art(
		sim("BenchmarkSimOK", 30),
		sim("BenchmarkSimSlow", 30),
		wall("BenchmarkWallOK", 1.0),
		wall("BenchmarkWallSlow", 1.0),
		wall("BenchmarkGone", 0.28),
	)
	newArt := art(
		sim("BenchmarkSimOK", 27), // -10%, inside 20%
		sim("BenchmarkSimSlow", 20),
		wall("BenchmarkWallOK", 0.6), // -40%, inside 50%
		wall("BenchmarkWallSlow", 0.4),
		wall("BenchmarkNew", 2.0), // no baseline: not reported
	)
	var out strings.Builder
	if n := diff(&out, oldArt, newArt, 0.20, 0.50); n != 2 {
		t.Fatalf("diff counted %d regressions, want 2:\n%s", n, out.String())
	}
	report := out.String()
	for name, verdict := range map[string]string{
		"BenchmarkSimOK":    "  ok",
		"BenchmarkSimSlow":  "REGRESSION (> 20%)",
		"BenchmarkWallOK":   "ok (wall)",
		"BenchmarkWallSlow": "REGRESSION (wall, > 50%)",
		"BenchmarkGone":     "missing",
	} {
		if l := line(t, report, name); !strings.HasSuffix(l, verdict) {
			t.Errorf("%s: line %q, want verdict %q", name, l, verdict)
		}
	}
	if strings.Contains(report, "BenchmarkNew") {
		t.Errorf("benchmark without a baseline reported:\n%s", report)
	}
}

// A missing benchmark is reported but not gated, so dropping one never
// fails the diff by itself.
func TestDiffMissingNotGated(t *testing.T) {
	var out strings.Builder
	if n := diff(&out, art(wall("BenchmarkIntraWavefront", 0.287), wall("BenchmarkIntraStriped", 0.276)),
		art(wall("BenchmarkIntraStriped", 1.9)), 0.20, 0.50); n != 0 {
		t.Fatalf("diff counted %d regressions, want 0:\n%s", n, out.String())
	}
	if l := line(t, out.String(), "BenchmarkIntraWavefront"); !strings.HasSuffix(l, "missing") {
		t.Fatalf("dropped benchmark line %q, want missing", l)
	}
}
