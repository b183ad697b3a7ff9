package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is not supported
// by the run.
const minBeyond = 10

// tail is a latency summary: the median and the highest percentile that
// keeps at least minBeyond samples above it, with the sample count.
type tail struct {
	N   int
	P50 float64
	// Pct is the tail percentile reported (99 when N >= 1000); 100 means
	// too few samples for any supported tail percentile, and Value is the
	// maximum.
	Pct    float64
	Value  float64
	Beyond int
}

// tailOf summarises samples by the percentile rule. It sorts a copy.
func tailOf(samples []float64) tail {
	n := len(samples)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := tail{N: n, P50: quantile(s, 0.5)}
	// The rank k (1-based) of the value reported leaves n-k samples
	// beyond it; the highest k with n-k >= minBeyond, capped at p99.
	k := n - minBeyond
	if k99 := int(math.Ceil(0.99 * float64(n))); k99 < k {
		k = k99
	}
	if k < 1 {
		t.Pct, t.Value = 100, s[n-1]
		return t
	}
	t.Pct, t.Value, t.Beyond = 100*float64(k)/float64(n), s[k-1], n-k
	return t
}

func (t tail) String() string {
	if t.Pct >= 100 {
		return fmt.Sprintf("p50 %.3f, max %.3f (n=%d, too few for a tail percentile)", t.P50, t.Value, t.N)
	}
	return fmt.Sprintf("p50 %.3f, p%.1f %.3f (n=%d, %d beyond)", t.P50, t.Pct, t.Value, t.N, t.Beyond)
}

// quantile interpolates the q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the median of samples without reordering them.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts operations and the ones that failed: an error, a refusal
// or a wrong answer all count as a failure.
type tally struct {
	attempted, failed int
	firstErr          error
}

// note records one operation's outcome.
func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
