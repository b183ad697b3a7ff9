package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// timing is one open-loop request: when it was due, when a sender got to
// send it, and when its answer was in.
type timing struct {
	due, sent, done time.Time
}

// latency is measured from the due time, so a stalled system is charged
// for the wait it imposes on every request queued behind the stall.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// lag is how late the generator sent the request.
func (t timing) lag() time.Duration { return t.sent.Sub(t.due) }

// uniformSchedule spaces n arrivals evenly at rate per second.
func uniformSchedule(n int, rate float64) []time.Duration {
	dues := make([]time.Duration, n)
	gap := float64(time.Second) / rate
	for i := range dues {
		dues[i] = time.Duration(math.Round(float64(i) * gap))
	}
	return dues
}

// openLoop sends request i at start+dues[i] from conns sender goroutines,
// each holding at most one request in flight, and returns when every
// request has been answered. A request whose due time passes while every
// sender is busy goes out late; the lateness shows in its latency and lag.
func openLoop(start time.Time, dues []time.Duration, conns int, send func(i int)) []timing {
	out := make([]timing, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				due := start.Add(dues[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				send(i)
				out[i] = timing{due: due, sent: sent, done: time.Now()}
			}
		}()
	}
	wg.Wait()
	return out
}

// stepResult summarises one open-loop step at a fixed arrival rate.
type stepResult struct {
	rate    float64
	latency tail // ms
	lag     tail // ms
	// score is the step's tail latency, or twice the median lateness of
	// its last quarter if that is larger: a growing backlog scores above
	// the limit even before it reaches the tail, and the score moves
	// continuously as the backlog grows.
	score float64
	// elapsed runs from the schedule's start to the last answer.
	elapsed time.Duration
}

func summarize(rate float64, start time.Time, ts []timing) stepResult {
	lat := make([]float64, len(ts))
	lag := make([]float64, len(ts))
	var last time.Time
	for i, t := range ts {
		lat[i], lag[i] = ms(t.latency()), ms(t.lag())
		if t.done.After(last) {
			last = t.done
		}
	}
	s := stepResult{rate: rate, latency: tailOf(lat), lag: tailOf(lag), elapsed: last.Sub(start)}
	s.score = max(s.latency.Value, 2*median(lag[len(lag)*3/4:]))
	return s
}

// meets reports whether the step's tail latency meets limit with no
// growing backlog.
func (s stepResult) meets(limit time.Duration) bool { return s.score <= ms(limit) }

// sloRate is the highest arrival rate at which the tail latency meets the
// limit with no growing backlog. Steps are in ascending rate. Between the
// last passing step and the first failing one the rate is interpolated
// on the log of the step scores, so the figure moves smoothly rather than
// by whole steps; if even the first step fails, its rate is scaled down
// by the overshoot.
func sloRate(steps []stepResult, limit time.Duration) float64 {
	L := ms(limit)
	for i, s := range steps {
		if s.meets(limit) {
			continue
		}
		if i == 0 {
			return s.rate * L / s.score
		}
		a := steps[i-1]
		f := (math.Log(L) - math.Log(a.score)) / (math.Log(s.score) - math.Log(a.score))
		return a.rate + (s.rate-a.rate)*math.Max(0, math.Min(1, f))
	}
	return steps[len(steps)-1].rate
}
