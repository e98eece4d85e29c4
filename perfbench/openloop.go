package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sleepUntil sleeps with nanosleep: the Go timer rounds
// sub-millisecond waits up to about a millisecond when the process is
// idle, which would add that much to every request timed from its due
// time. A sender sleeping in nanosleep keeps its processor, so senders
// do their own blocking I/O and never wait on another goroutine that
// would need one.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the time
	}
}

// OpenLoop drives requests on a fixed schedule: request i is due at
// start + i/Rate whether or not earlier ones have finished. Conns
// senders each take the next request, sleep until it is due and send
// it on their own connection; when every sender is busy the request is
// sent late, and its latency still counts from its due time.
type OpenLoop struct {
	Rate     float64       // requests per second
	Duration time.Duration // length of the schedule
	Conns    int           // connections (and sending goroutines)
	// LateLimit marks the run invalid when the 90th-percentile send
	// delay exceeds it: a tenth of the requests then left later than
	// that, so the generator, not the server, shaped the latencies. A
	// short stall delays only the few requests due during it.
	LateLimit time.Duration
}

// LoadResult is one open-loop run.
type LoadResult struct {
	LatencyMs []float64 // completion − due time, completed requests only, in schedule order
	LateMs    []float64 // send − due time, every request
	Tally     Tally
	Behind    bool // the generator fell behind its schedule
}

// Run sends every request of the schedule through send, which gets the
// sender's index (its connection) and the request's, and returns an
// error for a failed request (non-200, shed, transport error).
func (o OpenLoop) Run(send func(conn, i int) error) LoadResult {
	n := int(o.Rate * o.Duration.Seconds())
	interval := time.Duration(float64(time.Second) / o.Rate)
	lat := make([]float64, n)
	late := make([]float64, n)
	errs := make([]error, n)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < max(o.Conns, 1); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				sent := time.Now()
				errs[i] = send(c, i)
				done := time.Now()
				late[i] = ms(sent.Sub(due))
				lat[i] = ms(done.Sub(due))
			}
		}()
	}
	wg.Wait()
	res := LoadResult{LateMs: late}
	for i, err := range errs {
		res.Tally.Record(err)
		if err == nil {
			res.LatencyMs = append(res.LatencyMs, lat[i])
		}
	}
	if p90, _ := Percentile(late, 0.9); n > 0 && o.LateLimit > 0 && p90 > ms(o.LateLimit) {
		res.Behind = true
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
