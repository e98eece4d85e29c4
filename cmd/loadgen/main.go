// Command loadgen drives a synthetic check-in stream against a running
// csdserve instance and reports throughput and latency quantiles.
//
// Usage:
//
//	loadgen -url http://localhost:7070 [-concurrency 8] [-duration 10s]
//	        [-stays 4] [-seed 1] [-out report.json]
//	        [-min-ok N] [-min-shed N] [-max-errors N]
//
// Each worker keeps one request in flight (closed loop), sampling stay
// points uniformly inside the served city's extent (read from
// /v1/info) and posting them to /v1/recognize. The report counts 200s
// as served, 503s as shed (Retry-After presence tracked), everything
// else as errors, and prints QPS plus p50/p95/p99 of the served
// requests.
//
// The -min-ok/-min-shed/-max-errors flags turn the run into an
// assertion: the exit code is 1 when the thresholds are not met, which
// is how CI asserts "a mix of 200s and 503s under 2× overload" without
// parsing JSON. -out writes the full load report (counts, QPS and
// latency quantiles) as JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"csdm/internal/ckpt"
	"csdm/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		url         = flag.String("url", "http://localhost:7070", "base URL of the csdserve instance")
		concurrency = flag.Int("concurrency", 8, "closed-loop worker count")
		duration    = flag.Duration("duration", 10*time.Second, "run length")
		maxRequests = flag.Int64("requests", 0, "stop after this many requests (0 = run the full duration)")
		stays       = flag.Int("stays", 4, "stay points per posted journey")
		seed        = flag.Int64("seed", 1, "synthetic stream seed")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request client timeout")
		out         = flag.String("out", "", "write the load report as JSON to this file")
		minOK       = flag.Int64("min-ok", 0, "fail unless at least this many requests were served")
		minShed     = flag.Int64("min-shed", 0, "fail unless at least this many requests were shed")
		maxErrors   = flag.Int64("max-errors", 0, "fail when more than this many requests errored")
	)
	flag.Parse()

	rep, err := serve.RunLoad(context.Background(), *url, serve.LoadOptions{
		Concurrency:     *concurrency,
		Duration:        *duration,
		MaxRequests:     *maxRequests,
		StaysPerRequest: *stays,
		Seed:            *seed,
		Timeout:         *timeout,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("requests=%d ok=%d shed=%d errors=%d in %.1fs\n",
		rep.Requests, rep.OK, rep.Shed, rep.Errors, rep.DurationSec)
	fmt.Printf("qps=%.1f p50=%.2fms p95=%.2fms p99=%.2fms\n",
		rep.QPS, rep.P50Ms, rep.P95Ms, rep.P99Ms)
	if rep.Shed > 0 {
		fmt.Printf("shed responses with Retry-After: %d/%d\n", rep.ShedWithRetryAfter, rep.Shed)
	}

	if *out != "" {
		if err := writeJSONFile(*out, rep); err != nil {
			log.Fatal(err)
		}
	}
	failed := false
	if rep.OK < *minOK {
		log.Printf("FAIL: served %d < required %d", rep.OK, *minOK)
		failed = true
	}
	if rep.Shed < *minShed {
		log.Printf("FAIL: shed %d < required %d", rep.Shed, *minShed)
		failed = true
	}
	if rep.Shed > 0 && rep.ShedWithRetryAfter != rep.Shed {
		log.Printf("FAIL: %d of %d shed responses missing Retry-After", rep.Shed-rep.ShedWithRetryAfter, rep.Shed)
		failed = true
	}
	if rep.Errors > *maxErrors {
		log.Printf("FAIL: %d errors > allowed %d", rep.Errors, *maxErrors)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func writeJSONFile(path string, v any) error {
	return ckpt.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
