package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadOptions parameterizes one load-generation run against a running
// recognition server.
type LoadOptions struct {
	// Concurrency is the number of closed-loop worker goroutines (each
	// keeps exactly one request in flight). <= 0 means 8.
	Concurrency int
	// Duration bounds the run's wall time. <= 0 means 10 seconds.
	Duration time.Duration
	// MaxRequests, when positive, stops the run after that many
	// requests even if Duration has not elapsed.
	MaxRequests int64
	// StaysPerRequest is the synthetic journey length posted per
	// request. <= 0 means 4.
	StaysPerRequest int
	// Seed drives the synthetic check-in point sampling; equal seeds
	// generate identical request streams per worker.
	Seed int64
	// Timeout is the per-request HTTP client timeout. <= 0 means 5s.
	Timeout time.Duration
}

// LoadReport is the outcome of a load run: classification counts and
// the latency distribution of the served (200) requests.
type LoadReport struct {
	Concurrency int     `json:"concurrency"`
	Requests    int64   `json:"requests"`
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed"`
	Errors      int64   `json:"errors"`
	DurationSec float64 `json:"duration_sec"`
	// QPS counts served (200) responses per second of wall time.
	QPS   float64 `json:"qps"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// ShedWithRetryAfter counts the 503 responses that carried the
	// Retry-After header; a robust server sheds with a hint on every
	// one, so ShedWithRetryAfter == Shed.
	ShedWithRetryAfter int64 `json:"shed_with_retry_after"`
}

// ServerInfo mirrors the /v1/info response fields loadgen needs.
type ServerInfo struct {
	Generation int64 `json:"generation"`
	Units      int   `json:"units"`
	Extent     struct {
		Min pointJSON `json:"min"`
		Max pointJSON `json:"max"`
	} `json:"extent"`
}

// FetchInfo reads /v1/info from a running server.
func FetchInfo(ctx context.Context, client *http.Client, baseURL string) (ServerInfo, error) {
	var info ServerInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/info", nil)
	if err != nil {
		return info, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return info, fmt.Errorf("loadgen: fetch /v1/info: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("loadgen: /v1/info: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return info, fmt.Errorf("loadgen: decode /v1/info: %w", err)
	}
	return info, nil
}

// RunLoad drives a synthetic check-in stream against the server at
// baseURL: each worker samples stay points uniformly inside the served
// city's extent (read from /v1/info) and posts them to /v1/recognize
// in a closed loop until the duration elapses. 200 counts as served,
// 503 as shed (Retry-After presence recorded), anything else as an
// error. The latency quantiles cover served requests only — a shed
// response answering fast is the feature, not a latency sample.
func RunLoad(ctx context.Context, baseURL string, opt LoadOptions) (LoadReport, error) {
	if opt.Concurrency <= 0 {
		opt.Concurrency = 8
	}
	if opt.Duration <= 0 {
		opt.Duration = 10 * time.Second
	}
	if opt.StaysPerRequest <= 0 {
		opt.StaysPerRequest = 4
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 5 * time.Second
	}
	client := &http.Client{
		Timeout: opt.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        opt.Concurrency * 2,
			MaxIdleConnsPerHost: opt.Concurrency * 2,
		},
	}
	info, err := FetchInfo(ctx, client, baseURL)
	if err != nil {
		return LoadReport{}, err
	}
	lonSpan := info.Extent.Max.Lon - info.Extent.Min.Lon
	latSpan := info.Extent.Max.Lat - info.Extent.Min.Lat
	if lonSpan <= 0 || latSpan <= 0 {
		return LoadReport{}, fmt.Errorf("loadgen: degenerate server extent %+v", info.Extent)
	}

	runCtx, cancel := context.WithTimeout(ctx, opt.Duration)
	defer cancel()

	var (
		requests, ok, shed, errs, shedWithHint atomic.Int64
		mu                                     sync.Mutex
		latencies                              []float64 // ms, served requests only
		wg                                     sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < opt.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opt.Seed + int64(worker)*7919))
			local := make([]float64, 0, 1024)
			body := make(map[string][]pointJSON, 1)
			var buf bytes.Buffer
			for runCtx.Err() == nil {
				if opt.MaxRequests > 0 && requests.Load() >= opt.MaxRequests {
					break
				}
				stays := make([]pointJSON, opt.StaysPerRequest)
				for i := range stays {
					stays[i] = pointJSON{
						Lon: info.Extent.Min.Lon + rng.Float64()*lonSpan,
						Lat: info.Extent.Min.Lat + rng.Float64()*latSpan,
					}
				}
				body["stays"] = stays
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(body); err != nil {
					errs.Add(1)
					continue
				}
				req, err := http.NewRequestWithContext(runCtx, http.MethodPost, baseURL+"/v1/recognize", bytes.NewReader(buf.Bytes()))
				if err != nil {
					errs.Add(1)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				requests.Add(1)
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					if runCtx.Err() != nil {
						requests.Add(-1) // the run ended mid-flight, not a failure
						break
					}
					errs.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					local = append(local, float64(time.Since(t0).Microseconds())/1000)
				case http.StatusServiceUnavailable:
					shed.Add(1)
					if resp.Header.Get("Retry-After") != "" {
						shedWithHint.Add(1)
					}
				default:
					errs.Add(1)
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	sort.Float64s(latencies)
	rep := LoadReport{
		Concurrency:        opt.Concurrency,
		Requests:           requests.Load(),
		OK:                 ok.Load(),
		Shed:               shed.Load(),
		Errors:             errs.Load(),
		DurationSec:        elapsed,
		ShedWithRetryAfter: shedWithHint.Load(),
		P50Ms:              quantile(latencies, 0.50),
		P95Ms:              quantile(latencies, 0.95),
		P99Ms:              quantile(latencies, 0.99),
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.OK) / elapsed
	}
	return rep, nil
}

// quantile is the nearest-rank quantile of a sorted sample (0 when
// empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
