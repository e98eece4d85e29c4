package csdm

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"csdm/internal/benchledger"
	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/exec"
	"csdm/internal/experiments"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/poi"
	"csdm/internal/serve"
	"csdm/internal/shard"
	"csdm/internal/stage"
)

// benchGate sets one gate on a record.
type benchGate func(*benchledger.Record)

func tol(x float64) benchGate   { return func(r *benchledger.Record) { r.Tol = &x } }
func limit(x float64) benchGate { return func(r *benchledger.Record) { r.Limit = &x } }

// exact gates a deterministic count: any change from the baseline fails.
var exact = tol(0)

// recordFunc appends one record to the section being measured.
type recordFunc func(name, unit, better string, value float64, gates ...benchGate)

// benchSections are the ledger's four sections; each record's layer is
// its section and its name is prefixed with it.
var benchSections = []struct {
	name string
	emit func(t *testing.T, rec recordFunc)
}{
	{"mine", emitMine},
	{"delta", emitDelta},
	{"shard", emitShard},
	{"serve", emitServe},
}

// TestEmitBench measures the bench city and writes the BENCH.json
// ledger — one flat list of records — to the path in $BENCH_JSON.
// Unset, the test skips, so normal `go test` runs pay nothing. The
// committed BENCH.json is written by the command CI runs before it
// gates a fresh ledger against the committed one:
//
//	GOMAXPROCS=4 BENCH_JSON=bench_candidate.json go test -run TestEmitBench -v .
//	go run ./cmd/benchgate -baseline BENCH.json -candidate bench_candidate.json
//
// Every gate is written in the sections below, next to the number it
// guards.
func TestEmitBench(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("BENCH_JSON not set")
	}
	var ledger []benchledger.Record
	for _, sec := range benchSections {
		t.Run(sec.name, func(t *testing.T) {
			sec.emit(t, func(name, unit, better string, value float64, gates ...benchGate) {
				r := benchledger.Record{Name: sec.name + "." + name, Layer: sec.name, Unit: unit, Better: better, Value: value}
				for _, g := range gates {
					g(&r)
				}
				t.Logf("%s = %g %s", r.Name, r.Value, r.Unit)
				ledger = append(ledger, r)
			})
		})
	}
	if t.Failed() {
		return
	}
	data, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// emitMine times BenchmarkMine's extraction at workers 1 and 4. The
// workers-4 efficiency is the speedup over this ledger's own workers-1
// line; its 2× floor is written only where the cores exist.
func emitMine(t *testing.T, rec recordFunc) {
	params := benchParams()
	var ns1 float64
	for _, workers := range []int{1, 4} {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		env := experiments.SetupConfig(benchScale(), cfg)
		env.Pipeline.Database(core.RecCSD) // prebuild: measure extraction alone
		patterns := 0
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				patterns = len(env.Pipeline.Mine(core.CSDPM, params))
			}
		})
		line := fmt.Sprintf("workers-%d.", workers)
		ns := float64(r.NsPerOp())
		rec(line+"patterns", "count", "higher", float64(patterns), exact)
		rec(line+"ns_per_op", "ns", "lower", ns, tol(0.10))
		rec(line+"allocs_per_op", "count", "lower", float64(r.AllocsPerOp()), tol(0.10))
		if workers == 1 {
			ns1 = ns
			continue
		}
		var gates []benchGate
		if runtime.NumCPU() >= workers {
			gates = append(gates, limit(2.0))
		}
		rec(line+"efficiency", "ratio", "higher", ns1/ns, gates...)
	}
}

// emitDelta times a full rebuild on the union against one ApplyDelta of
// the newest 1%, 5% and 20% of the stays on a maintainer seeded with
// the rest. Timing is best of three by hand: every delta repetition
// needs a freshly seeded maintainer, which b.N scaling would multiply.
func emitDelta(t *testing.T, rec recordFunc) {
	const reps = 3
	env := sharedEnv()
	stays := env.Pipeline.StayPoints()
	params := core.DefaultConfig().CSD

	var fullNs int64
	var fullUnits int
	for r := 0; r < reps; r++ {
		start := time.Now()
		d := csd.Build(env.City.POIs, stays, params)
		fullNs = bestOf(fullNs, time.Since(start))
		fullUnits = len(d.Units)
	}
	rec("full_ns_per_op", "ns", "lower", float64(fullNs))

	for _, frac := range []float64{0.01, 0.05, 0.20} {
		batch := max(int(float64(len(stays))*frac), 1)
		base, delta := stays[:len(stays)-batch], stays[len(stays)-batch:]
		var deltaNs int64
		var units int
		for r := 0; r < reps; r++ {
			m, err := csd.NewMaintainerEnv(stage.Background(), env.City.POIs, base, params)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			d, _, err := m.ApplyDelta(stage.Background(), delta)
			deltaNs = bestOf(deltaNs, time.Since(start))
			if err != nil {
				t.Fatal(err)
			}
			units = len(d.Units)
		}
		if units != fullUnits {
			t.Fatalf("fraction %.2f: delta diagram has %d units, full rebuild %d — equivalence broken", frac, units, fullUnits)
		}
		line := fmt.Sprintf("fraction-%g.", frac)
		rec(line+"units", "count", "higher", float64(units), exact)
		rec(line+"delta_ns_per_op", "ns", "lower", float64(deltaNs))
		gates := []benchGate{tol(0.9)}
		if frac == 0.01 {
			gates = append(gates, limit(5))
		}
		rec(line+"speedup", "ratio", "higher", float64(fullNs)/float64(deltaNs), gates...)
	}
}

// emitShard times sharded out-of-core builds over an on-disk stay store
// — so LoadRect I/O is in the number — at 2x2, 3x3 and 4x4 tilings,
// against one monolithic in-memory build.
func emitShard(t *testing.T, rec recordFunc) {
	const reps = 3
	env := sharedEnv()
	pois := env.City.POIs
	stays := env.Pipeline.StayPoints()
	params := core.DefaultConfig().CSD
	extent := geo.BoundingRect(poi.Locations(pois))
	senv := stage.Background()
	senv.Opt = exec.Options{Workers: runtime.GOMAXPROCS(0), Index: index.KindGrid}

	var monoNs int64
	var monoUnits int
	for r := 0; r < reps; r++ {
		start := time.Now()
		d, err := csd.BuildEnv(senv, pois, stays, params)
		monoNs = bestOf(monoNs, time.Since(start))
		if err != nil {
			t.Fatal(err)
		}
		monoUnits = len(d.Units)
	}
	rec("mono_ns_per_op", "ns", "lower", float64(monoNs))

	storePath := filepath.Join(t.TempDir(), "stays.csdstay")
	w, err := shard.CreateStayStore(storePath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(stays); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := shard.OpenStayStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	for _, n := range []int{2, 3, 4} {
		plan, err := shard.NewPlan(extent, n, n, params.R3Sigma)
		if err != nil {
			t.Fatal(err)
		}
		var shardNs int64
		var units int
		var st shard.Stats
		for r := 0; r < reps; r++ {
			start := time.Now()
			d, stats, err := shard.Build(senv, pois, store, shard.Config{
				Plan: plan, Params: params, ShardWorkers: runtime.GOMAXPROCS(0),
			})
			shardNs = bestOf(shardNs, time.Since(start))
			if err != nil {
				t.Fatal(err)
			}
			units, st = len(d.Units), stats
		}
		if units != monoUnits {
			t.Fatalf("tiling %dx%d: sharded diagram has %d units, monolithic %d — equivalence broken", n, n, units, monoUnits)
		}
		resident := 1.0
		if st.TotalStays > 0 {
			resident = float64(st.MaxShardStays) / float64(st.TotalStays)
		}
		line := fmt.Sprintf("%dx%d.", n, n)
		rec(line+"units", "count", "higher", float64(units), exact)
		rec(line+"ns_per_op", "ns", "lower", float64(shardNs), tol(0.9))
		rec(line+"resident_fraction", "ratio", "lower", resident, limit(0.75))
	}
}

// benchServeDuration is the load window of each serve line.
const benchServeDuration = 2 * time.Second

// emitServe drives the serving path end to end — real listener, real
// HTTP round trips, cmd/loadgen's engine — over the bench city's
// diagram at admission limit 4: one line at the limit (pure
// throughput) and one at 4× it (overload: QPS should hold while the
// excess sheds).
func emitServe(t *testing.T, rec recordFunc) {
	const admissionLimit = 4
	s := serve.New(serve.Config{AdmissionLimit: admissionLimit, RequestTimeout: 2 * time.Second})
	s.UseDiagram(sharedEnv().Pipeline.Diagram())
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(5 * time.Second)

	for _, concurrency := range []int{admissionLimit, 4 * admissionLimit} {
		rep, err := serve.RunLoad(context.Background(), "http://"+addr, serve.LoadOptions{
			Concurrency: concurrency,
			Duration:    benchServeDuration,
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ShedWithRetryAfter != rep.Shed {
			t.Errorf("concurrency %d: %d shed responses missing Retry-After", concurrency, rep.Shed-rep.ShedWithRetryAfter)
		}
		line := fmt.Sprintf("concurrency-%d.", concurrency)
		rec(line+"qps", "qps", "higher", rep.QPS, tol(0.9))
		rec(line+"p50_ms", "ms", "lower", rep.P50Ms)
		rec(line+"p99_ms", "ms", "lower", rep.P99Ms, tol(9))
		rec(line+"ok", "count", "higher", float64(rep.OK), limit(1))
		rec(line+"shed", "count", "lower", float64(rep.Shed))
		rec(line+"errors", "count", "lower", float64(rep.Errors), limit(0))
	}
}

// bestOf folds one timed repetition into the best (smallest) so far;
// best 0 means none yet.
func bestOf(best int64, d time.Duration) int64 {
	if ns := d.Nanoseconds(); best == 0 || ns < best {
		return ns
	}
	return best
}
