package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// minReps is the fewest worker repetitions a run makes, so every
	// reported figure is a median of at least three fresh processes.
	minReps = 3
	// mineCities is how many cities one mine-city run mines. A city's
	// cost depends on its generated travel patterns (peak RSS varies
	// about 2× between seeds), so a run mines many cities drawn from its
	// seed and reports their totals and means.
	mineCities = 16
	// citySeedStride separates the genworkload seeds of one run's
	// cities: city k of seed s is generated with seed s + k·stride.
	citySeedStride = 1000
)

// seed1MineDigest is the output digest (diagram payload plus pattern
// set) of mine-city's first city for seed 1, which genworkload -seed 1
// generates. Float results are checked only on amd64: other
// architectures may fuse multiply-adds and round differently.
const seed1MineDigest = "8ccd9c2be096fa6b7363c09b104c587bb71da19542f991faf713deb4dd6a87ee"

// repeat runs worker repetitions until the measured time is spent,
// making at least atLeast. dirFor gives repetition k its input
// directory, generating it first if needed.
func repeat(e *env, atLeast int, dirFor func(k int) (string, error), args ...string) ([]rep, Tally, error) {
	var reps []rep
	var tally Tally
	start := time.Now()
	for k := 0; k < atLeast || time.Since(start).Seconds() < e.seconds; k++ {
		dir, err := dirFor(k)
		if err != nil {
			return reps, tally, err
		}
		r, err := runWorker(append([]string{"-dir", dir, "-workers", fmt.Sprint(e.workers), "-seed", fmt.Sprint(e.seed)}, args...)...)
		tally.Merge(r.Res.Tally)
		if err != nil {
			if r.Res.Tally.Failed == 0 {
				tally.Record(err) // the worker died before tallying
			}
			return reps, tally, err
		}
		reps = append(reps, r)
	}
	return reps, tally, nil
}

// batchMetrics reports the end-to-end metrics over the repetitions:
// throughput and CPU per stay from their totals, peak RSS as the mean,
// set-up as the median. A repetition's timed phase is one operation,
// and the latency percentiles are taken over them under the ≥10-beyond
// rule.
func batchMetrics(res *result, reps []rep) {
	var setup, rss, wallMs []float64
	var stays, work, cpu float64
	for _, r := range reps {
		setup = append(setup, r.SetupS)
		rss = append(rss, r.Res.MaxRSSMB)
		wallMs = append(wallMs, r.Res.WorkS*1e3)
		stays += float64(r.Res.Stays)
		work += r.Res.WorkS
		cpu += r.Res.CPUS
	}
	res.set("setup_s", Median(setup), "s")
	res.set("stays_per_s", stays/work, "stays/s")
	res.set("cpu_us_per_stay", cpu/stays*1e6, "us")
	res.set("peak_rss_mb", Mean(rss), "MiB")
	used := map[string]float64{}
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p99_ms", 0.99}} {
		v, u := Percentile(wallMs, q.p)
		res.set(q.name, v, "ms")
		used[q.name] = u
	}
	res.info["reps"] = len(reps)
	res.info["latency_quantiles_used"] = used
}

// checkDigests requires every repetition to produce want (or, when
// want is empty, the same digest as the first) and returns it.
func checkDigests(res *result, reps []rep, want string) string {
	for i, r := range reps {
		if want == "" {
			want = r.Res.Digest
		}
		if r.Res.Digest != want {
			res.fail("repetition %d digest %s, want %s", i, r.Res.Digest, want)
		}
	}
	return want
}

// checkSeed1 compares seed 1's first-city digest with the recorded one.
func checkSeed1(res *result, e *env, digest string) {
	if e.seed == 1 && runtime.GOARCH == "amd64" && digest != seed1MineDigest {
		res.fail("seed 1 digest %s, recorded %s", digest, seed1MineDigest)
	}
}

func runMineCity(e *env) (result, error) {
	res := newResult()
	cityDir := func(k int) (string, error) {
		if k == 0 {
			return e.dir, nil
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("city-%d", k))
		return dir, genworkload(e, dir, e.seed+int64(k)*citySeedStride)
	}
	reps, tally, err := repeat(e, mineCities, cityDir, "-kind", "mine")
	res.tally = tally
	if err != nil {
		res.fail("%v", err)
		return res, nil
	}
	batchMetrics(&res, reps)
	checkSeed1(&res, e, reps[0].Res.Digest)
	h := sha256.New()
	var patterns []float64
	for _, r := range reps {
		h.Write([]byte(r.Res.Digest))
		patterns = append(patterns, r.Res.Info["patterns"])
	}
	res.info["first_city_digest"] = reps[0].Res.Digest
	res.info["digest"] = hex.EncodeToString(h.Sum(nil))
	res.info["patterns"] = patterns
	return res, nil
}

func runShard(e *env) (result, error) {
	res := newResult()
	sameDir := func(int) (string, error) { return e.dir, nil }
	reps, tally, err := repeat(e, minReps, sameDir, "-kind", "shard")
	res.tally = tally
	if err != nil {
		res.fail("%v", err)
		return res, nil
	}
	batchMetrics(&res, reps)
	res.info["digest"] = checkDigests(&res, reps, "")
	res.info["shard_stats"] = reps[0].Res.Info
	return res, nil
}
