package main

import (
	"errors"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueUnderStall injects a 60 ms stall into one
// request on a single connection. The requests due during the stall
// are sent late, and their latencies must count that wait from their
// due time, not from when they were finally sent.
func TestOpenLoopTimesFromDueUnderStall(t *testing.T) {
	const stallAt, stall = 20, 60 * time.Millisecond
	o := OpenLoop{Rate: 1000, Duration: 200 * time.Millisecond, Conns: 1}
	res := o.Run(func(_, i int) error {
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	})
	if res.Tally.Attempted != 200 || res.Tally.Failed != 0 || len(res.LatencyMs) != 200 {
		t.Fatalf("tally %+v with %d latencies, want 200 attempted", res.Tally, len(res.LatencyMs))
	}
	// Request stallAt+10 was due 10 ms into the stall, so it waited about
	// 50 ms before it could be sent.
	i := stallAt + 10
	if res.LateMs[i] < 40 {
		t.Errorf("request %d sent %.1f ms late, want about 50", i, res.LateMs[i])
	}
	if res.LatencyMs[i] < res.LateMs[i] {
		t.Errorf("latency %.1f ms below send delay %.1f ms: not timed from the due time", res.LatencyMs[i], res.LateMs[i])
	}
	if res.LatencyMs[stallAt] < 55 {
		t.Errorf("stalled request latency %.1f ms, want at least the stall", res.LatencyMs[stallAt])
	}
	// Well before the stall the generator was on time.
	if res.LateMs[5] > 20 {
		t.Errorf("request 5 sent %.1f ms late before any stall", res.LateMs[5])
	}
}

func TestOpenLoopMarksBehindAndCountsFailures(t *testing.T) {
	// Every request takes 5 ms on one connection at 1000/s: the
	// schedule runs away from the generator.
	o := OpenLoop{Rate: 1000, Duration: 100 * time.Millisecond, Conns: 1, LateLimit: 50 * time.Millisecond}
	res := o.Run(func(_, i int) error {
		time.Sleep(5 * time.Millisecond)
		if i%10 == 0 {
			return errors.New("status 503")
		}
		return nil
	})
	if !res.Behind {
		t.Errorf("generator 5x over its capacity not marked behind")
	}
	if res.Tally.Attempted != 100 || res.Tally.Failed != 10 || len(res.LatencyMs) != 90 {
		t.Errorf("tally %+v, %d latencies; want 100 attempted, 10 failed, 90 latencies", res.Tally, len(res.LatencyMs))
	}

	o = OpenLoop{Rate: 200, Duration: 100 * time.Millisecond, Conns: 2, LateLimit: 50 * time.Millisecond}
	if res := o.Run(func(int, int) error { return nil }); res.Behind {
		t.Errorf("idle generator marked behind: late %v", res.LateMs)
	}
}
