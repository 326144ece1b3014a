package main

// Load generation: an open-loop phase at a fixed rate, where every request
// is timed from when it was due (so a stall is charged to the requests
// queued behind it), and a closed-loop phase where each client sends its
// next request only after the previous one completes. Both use at most
// `clients` goroutines, one connection each.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one request's timing. due is zero in closed-loop phases.
type outcome struct {
	due, sent, done time.Time
}

// latency is the request's time from due (open loop) or from sending
// (closed loop) to completion.
func (o outcome) latency() time.Duration {
	if o.due.IsZero() {
		return o.done.Sub(o.sent)
	}
	return o.done.Sub(o.due)
}

// lag is how late the generator sent the request.
func (o outcome) lag() time.Duration { return o.sent.Sub(o.due) }

// openLoop issues n requests due at start+i/rate. Up to clients requests
// run at once; a request whose slot is taken waits, and that wait counts
// in its latency because it is timed from its due time. do performs
// request i.
func openLoop(n int, rate float64, clients int, do func(i int)) []outcome {
	out := make([]outcome, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i].sent = time.Now()
				do(i)
				out[i].done = time.Now()
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		out[i].due = due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop runs clients goroutines that each send requests back to back,
// taking indexes from 0 upwards, until d has passed or limit requests were
// taken. It returns the outcomes of the requests taken and the phase's
// wall time.
func closedLoop(d time.Duration, limit, clients int, do func(i int)) ([]outcome, time.Duration) {
	out := make([]outcome, limit)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				out[i].sent = time.Now()
				do(i)
				out[i].done = time.Now()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	n := int(next.Load())
	if n > limit {
		n = limit
	}
	return out[:n], wall
}

// errTooFewSamples is returned by percentile when fewer than ten samples
// would lie beyond the requested percentile.
var errTooFewSamples = errors.New("fewer than 10 samples beyond the percentile")

// percentile returns the p-th percentile (0 < p < 1) of xs by the nearest-
// rank rule. A tail percentile (p > 0.5) is refused unless at least ten
// samples lie strictly beyond its rank, so a reported p99 always rests on
// ten or more slower samples.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errTooFewSamples
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if p > 0.5 && len(s)-1-rank < 10 {
		return 0, fmt.Errorf("p%g of %d samples: %w", p*100, len(s), errTooFewSamples)
	}
	return s[rank], nil
}

// median is percentile 0.5 without the tail rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	v, _ := percentile(xs, 0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
