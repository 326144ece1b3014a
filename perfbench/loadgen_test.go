package main

import (
	"errors"
	"testing"
	"time"
)

func TestPercentileTenBeyond(t *testing.T) {
	xs := make([]float64, 1009)
	for i := range xs {
		xs[i] = float64(i)
	}
	// p99 of 1009 samples is the 999th smallest: ten samples beyond.
	if v, err := percentile(xs, 0.99); err != nil || v != 998 {
		t.Fatalf("p99 of 1009 = %v, %v; want 998", v, err)
	}
	// With 1000 samples it is the 990th smallest, again ten beyond.
	if _, err := percentile(xs[:1000], 0.99); err != nil {
		t.Fatalf("p99 of 1000: %v", err)
	}
	// With 999, nine would lie beyond: refused.
	if _, err := percentile(xs[:999], 0.99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 of 999: err = %v, want errTooFewSamples", err)
	}
	if _, err := percentile(xs[:10], 0.5); err != nil {
		t.Fatalf("the median needs no tail: %v", err)
	}
}

// TestOpenLoopChargesStalls: one request stalls its client; the requests
// due behind it wait, and their latency, timed from when they were due,
// carries that wait.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 60 * time.Millisecond
	outs := openLoop(20, 1000, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i := 1; i < 10; i++ {
		// Request i was due i ms after the stalled one and could only be
		// sent once the stall ended.
		want := stall - time.Duration(i)*time.Millisecond
		if got := outs[i].latency(); got < want-5*time.Millisecond {
			t.Fatalf("request %d latency %v, want about %v (the stall charged to it)", i, got, want)
		}
		if outs[i].lag() < want-5*time.Millisecond {
			t.Fatalf("request %d lag %v, want about %v", i, outs[i].lag(), want)
		}
	}
	// A closed loop times from sending, so a stall is charged to itself
	// only.
	closed, _ := closedLoop(time.Second, 5, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	if got := closed[1].latency(); got > stall/2 {
		t.Fatalf("closed-loop request after a stall took %v", got)
	}
}
