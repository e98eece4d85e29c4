package main

// The traced run calls each layer's public function directly on the
// workload's inputs, with a span around every call, and reports the
// per-layer metrics. Every layer runs on every workload, so each
// traced run reports every per-layer metric; on shard-country the
// layers outside its own path see a city-sized slice of the inputs.
// End-to-end metrics never come from this run.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"csdm/internal/ckpt"
	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/obs"
	"csdm/internal/pattern"
	"csdm/internal/poi"
	"csdm/internal/recognize"
	"csdm/internal/seqpattern"
	"csdm/internal/shard"
	"csdm/internal/stage"
	"csdm/internal/trajectory"
)

const (
	// The slice of a country workload that layers outside
	// shard-country's own path see: about one generated city.
	traceMaxPOIs     = 6100
	traceMaxJourneys = 29000
	// ingestKeepGens bounds the generation snapshots the ingest layer
	// keeps on disk.
	ingestKeepGens = 4
)

// tracer is one traced run: its spans and its per-layer figures.
type tracer struct {
	e    *env
	rec  *Recorder
	root int
	res  *result
	cfg  core.Config
}

// span runs fn inside a span named name, counts it as one operation,
// and returns its seconds.
func (t *tracer) span(name string, fn func() error) (float64, error) {
	id := t.rec.Start(name, t.root)
	err := fn()
	s := t.rec.End(id)
	t.res.tally.Record(err)
	if err != nil {
		return s, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

func (t *tracer) env() stage.Env {
	ctx := context.Background()
	return stage.Env{Ctx: ctx, Run: ctx, Opt: t.cfg.ExecOptions()}
}

func runTraced(e *env) (result, error) {
	res := newResult()
	t := &tracer{e: e, rec: NewRecorder(fmt.Sprintf("%s-%d-%d", e.workload, e.seed, os.Getpid())), res: &res, cfg: pipelineConfig(e.workers)}
	t.root = t.rec.Start("traced."+e.workload, -1)
	stopHeap := sampleHeapPeak(&res)
	gc0, gcCPU0 := gcFigures()
	err := t.sweep()
	t.rec.End(t.root)
	stopHeap()
	gc1, gcCPU1 := gcFigures()
	if err != nil {
		return res, err
	}
	res.set("runtime.gc_cycles", gc1-gc0, "count")
	res.set("runtime.gc_cpu_s", gcCPU1-gcCPU0, "s")
	spans := t.rec.Spans()
	res.info["self_ms"] = selfByName(spans)
	if err := writeSpans(e, spans); err != nil {
		return res, err
	}
	return res, nil
}

// sweep runs every layer once, in pipeline order.
func (t *tracer) sweep() error {
	e, res := t.e, t.res
	var pois []poi.POI
	var journeys []trajectory.Journey
	loadS, err := t.span("load", func() error {
		var err error
		if pois, err = readPOIs(e.path("pois.csv")); err != nil {
			return err
		}
		journeys, err = readJourneys(e.path("journeys.csv"))
		return err
	})
	if err != nil {
		return err
	}
	res.set("load.read_s", loadS, "s")
	res.set("load.rows", float64(len(pois)+len(journeys)), "count")
	if e.workload == "shard-country" {
		pois, journeys = pois[:min(len(pois), traceMaxPOIs)], journeys[:min(len(journeys), traceMaxJourneys)]
	}
	stays := core.Stays(journeys)

	d, err := t.construct(pois, stays)
	if err != nil {
		return err
	}
	snap := e.path("traced.csdf")
	if err := ckpt.WriteAtomic(snap, d.Write); err != nil {
		return err
	}
	readS, err := t.span("csd.read", func() error { _, err := csd.ReadFile(snap); return err })
	if err != nil {
		return err
	}
	res.set("csd.read_ms", readS*1e3, "ms")

	reqs := serveRequests(stays, e.seed, serveBodies)
	if err := t.mine(d, journeys, reqs); err != nil {
		return err
	}
	if err := t.ingest(pois, journeys); err != nil {
		return err
	}
	if err := t.shard(); err != nil {
		return err
	}
	if err := t.serve(snap, d, reqs); err != nil {
		return err
	}
	return t.overhead(pois, journeys)
}

// construct measures the index layer and the diagram construction:
// Eq. 2–3 popularity, then phases 2–4.
func (t *tracer) construct(pois []poi.POI, stays []geo.Point) (*csd.Diagram, error) {
	res := t.res
	r := t.cfg.CSD.R3Sigma
	var idx index.Index
	buildS, err := t.span("index.build", func() error { idx = index.New(t.cfg.Index, stays, r); return nil })
	if err != nil {
		return nil, err
	}
	var results int
	queryS, _ := t.span("index.query", func() error {
		var buf []int
		for _, p := range pois {
			buf = idx.WithinAppend(p.Location, r, buf[:0])
			results += len(buf)
		}
		return nil
	})
	res.set("index.build_ms", buildS*1e3, "ms")
	res.set("index.query_us", queryS*1e6/float64(len(pois)), "us")
	res.set("index.results_per_query", float64(results)/float64(len(pois)), "count")

	var pop []float64
	popS, _ := t.span("csd.popularity", func() error {
		pop = csd.Popularity(pois, stays, geo.NewGaussianKernel(r))
		return nil
	})
	var d *csd.Diagram
	phasesS, err := t.span("csd.phases", func() error {
		var err error
		d, err = csd.BuildFromPopularity(t.env(), pois, pop, t.cfg.CSD)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.set("csd.popularity_s", popS, "s")
	res.set("csd.phases_s", phasesS, "s")
	res.set("csd.units", float64(len(d.Units)), "count")
	return d, nil
}

// mine measures recognition, PrefixSpan and Algorithm 4, and checks
// mine-city's digest against an untraced in-process run.
func (t *tracer) mine(d *csd.Diagram, journeys []trajectory.Journey, reqs [][]geo.Point) error {
	res := t.res
	var db []trajectory.SemanticTrajectory
	annS, err := t.span("recognize.annotate", func() error {
		var err error
		db, err = recognize.AnnotateJourneysEnv(t.env(), journeys, t.cfg.Chain, recognize.NewCSDRecognizer(d))
		return err
	})
	if err != nil {
		return err
	}
	res.set("recognize.annotate_s", annS, "s")
	var annotated, total int
	for _, st := range db {
		for _, sp := range st.Stays {
			total++
			if !sp.S.IsEmpty() {
				annotated++
			}
		}
	}
	rec := recognize.NewCSDRecognizer(d)
	var served []trajectory.StayPoint
	for _, r := range reqs {
		for _, p := range r {
			served = append(served, trajectory.StayPoint{P: p})
		}
	}
	recS, err := t.span("recognize.stays", func() error {
		return recognize.RecognizeStays(context.Background(), served, rec, new(recognize.Scratch))
	})
	if err != nil {
		return err
	}
	for _, sp := range served {
		total++
		if !sp.S.IsEmpty() {
			annotated++
		}
	}
	res.set("recognize.us_per_stay", recS*1e6/float64(len(served)), "us")
	res.set("recognize.annotated_frac", float64(annotated)/float64(total), "ratio")

	params := pattern.DefaultParams()
	seqS, _ := t.span("seqpattern.mine", func() error {
		seqs := make([]seqpattern.Sequence, len(db))
		for i, st := range db {
			seq := make(seqpattern.Sequence, st.Len())
			for k, sp := range st.Stays {
				seq[k] = seqpattern.Item(sp.S)
			}
			seqs[i] = seq
		}
		seqpattern.MineWith(seqs, seqpattern.Config{MinSupport: params.Sigma, MinLen: params.MinLen, MaxLen: params.MaxLen}, t.cfg.ExecOptions())
		return nil
	})
	res.set("seqpattern.mine_ms", seqS*1e3, "ms")

	tr := obs.New()
	env := t.env()
	env.Trace = tr
	var ps []pattern.Pattern
	extS, err := t.span("pattern.extract", func() error {
		var err error
		ps, err = pattern.NewCounterpartCluster().Extract(env, db, params)
		return err
	})
	if err != nil {
		return err
	}
	res.set("pattern.extract_s", extS, "s")
	snap := tr.Snapshot()
	res.set("pattern.refine_s", spanMs(snap.Spans, "refine")/1e3, "s")
	res.set("pattern.closure_s", spanMs(snap.Spans, "closure")/1e3, "s")
	cands := float64(snap.Counters["extract.CounterpartCluster.candidates"])
	res.set("pattern.candidates", cands, "count")
	res.set("pattern.yield", float64(len(ps))/max(cands, 1), "ratio")
	res.info["patterns"] = len(ps)
	if t.e.workload == "mine-city" {
		digest, err := mineDigest(d, ps)
		if err != nil {
			return err
		}
		res.info["digest"] = digest
		checkSeed1(res, t.e, digest)
	}
	return nil
}

// spanMs sums the durations of every span called name in the tree.
func spanMs(spans []obs.SpanSnapshot, name string) float64 {
	var total float64
	for _, s := range spans {
		if s.Name == name {
			total += s.Millis
		}
		total += spanMs(s.Children, name)
	}
	return total
}

// splitByTime orders journeys by pickup time and splits them 80/20
// into a base and a stream, as genworkload's stream scenario does.
func splitByTime(js []trajectory.Journey) (base, stream []trajectory.Journey) {
	s := append([]trajectory.Journey(nil), js...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].PickupTime.Before(s[j].PickupTime) })
	cut := len(s) * 8 / 10
	return s[:cut], s[cut:]
}

// ingestBatchJourneys is the stream batch size: 50 journeys, or less
// so the stream has at least 100 batches.
func ingestBatchJourneys(streamJourneys int) int {
	return max(1, min(50, streamJourneys/100))
}

// ingest measures the maintainer and lineage publishing on the
// journeys split by pickup time as genworkload's stream scenario
// splits them: seeding on the earliest 80%, then every batch of the
// rest applied and published as a generation. The last generation must
// equal a one-shot build over all the journeys.
func (t *tracer) ingest(pois []poi.POI, journeys []trajectory.Journey) error {
	res := t.res
	base, stream := splitByTime(journeys)
	ckDir, err := os.MkdirTemp(t.e.dir, "traced-ck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckDir)
	mgr, err := ckpt.New(ckDir, nil)
	if err != nil {
		return err
	}
	var m *csd.Maintainer
	seedS, err := t.span("csd.seed", func() error {
		var err error
		m, err = csd.NewMaintainerEnv(t.env(), pois, core.Stays(base), t.cfg.CSD)
		return err
	})
	if err != nil {
		return err
	}
	res.set("csd.seed_s", seedS, "s")
	batch := ingestBatchJourneys(len(stream))
	var applyMs, publishMs, bytesPerGen []float64
	var affected, dirty, reused float64
	var last *csd.Diagram
	for lo := 0; lo < len(stream); lo += batch {
		hi := min(lo+batch, len(stream))
		var d *csd.Diagram
		var st csd.DeltaStats
		s, err := t.span("csd.apply_delta", func() error {
			var err error
			d, st, err = m.ApplyDelta(t.env(), core.Stays(stream[lo:hi]))
			return err
		})
		if err != nil {
			return err
		}
		applyMs = append(applyMs, s*1e3)
		affected += float64(st.AffectedPOIs)
		dirty += float64(st.DirtyUnits)
		reused += float64(st.ReusedUnits)
		s, err = t.span("ckpt.publish", func() error { return mgr.SaveGenerationDiagram(d) })
		if err != nil {
			return err
		}
		publishMs = append(publishMs, s*1e3)
		if fi, err := os.Stat(filepath.Join(ckDir, ckpt.GenerationFile(d.Generation))); err == nil {
			bytesPerGen = append(bytesPerGen, float64(fi.Size()))
		}
		if _, err := mgr.PruneGenerations(ingestKeepGens); err != nil {
			return err
		}
		last = d
	}
	p50, _ := Percentile(applyMs, 0.5)
	p90, _ := Percentile(applyMs, 0.9)
	res.set("csd.apply_delta_p50_ms", p50, "ms")
	res.set("csd.apply_delta_p90_ms", p90, "ms")
	res.set("csd.affected_pois", affected/float64(len(applyMs)), "count")
	res.set("csd.dirty_unit_frac", dirty/max(dirty+reused, 1), "ratio")
	res.set("ckpt.publish_ms", Median(publishMs), "ms")
	res.set("ckpt.bytes_per_gen", Median(bytesPerGen), "bytes")
	full, err := csd.BuildEnv(t.env(), pois, core.Stays(append(base[:len(base):len(base)], stream...)), t.cfg.CSD)
	if err != nil {
		return err
	}
	want, err := diagramDigest(full)
	if err != nil {
		return err
	}
	if got, err := diagramDigest(last); err != nil {
		return err
	} else if got != want {
		res.fail("final generation digest %s, one-shot build %s", got, want)
	}
	return nil
}

// timedSource counts and times every LoadRect a shard makes.
type timedSource struct {
	src   shard.StaySource
	mu    sync.Mutex
	calls int
	total time.Duration
}

func (s *timedSource) Len() int { return s.src.Len() }

func (s *timedSource) LoadRect(r geo.Rect) ([]int, *geo.PackedPoints, error) {
	t0 := time.Now()
	ids, pp, err := s.src.LoadRect(r)
	d := time.Since(t0)
	s.mu.Lock()
	s.calls++
	s.total += d
	s.mu.Unlock()
	return ids, pp, err
}

// shard measures the out-of-core build: spill, then shard.Build 4×4
// over the store, every LoadRect timed. It reads the workload's full
// journey file and POI file, so on shard-country it is the workload's
// own build.
func (t *tracer) shard() error {
	res := t.res
	pois, err := readPOIs(t.e.path("pois.csv"))
	if err != nil {
		return err
	}
	storePath := t.e.path("traced.csdstay")
	defer os.Remove(storePath)
	var store *shard.StayStore
	spillS, err := t.span("shard.spill", func() error {
		var err error
		store, err = spill(t.e.path("journeys.csv"), storePath)
		return err
	})
	if err != nil {
		return err
	}
	defer store.Close()
	src := &timedSource{src: store}
	var d *csd.Diagram
	var st shard.Stats
	buildS, err := t.span("shard.build", func() error {
		plan, err := shard.NewPlan(geo.BoundingRect(poi.Locations(pois)), shardRows, shardCols, t.cfg.CSD.R3Sigma)
		if err != nil {
			return err
		}
		d, st, err = shard.Build(t.env(), pois, src, shard.Config{Plan: plan, Params: t.cfg.CSD, ShardWorkers: shardWorkers})
		return err
	})
	if err != nil {
		return err
	}
	res.set("shard.spill_s", spillS, "s")
	res.set("shard.build_s", buildS, "s")
	res.set("shard.loadrect_ms", ms(src.total), "ms")
	res.set("shard.loadrect_calls", float64(src.calls), "count")
	res.set("shard.halo_ratio", float64(st.LoadedStays)/float64(st.TotalStays), "ratio")
	res.set("shard.max_resident_frac", float64(st.MaxShardStays)/float64(st.TotalStays), "ratio")
	if t.e.workload == "shard-country" {
		if err := checkPopularity(d, store, t.e.seed); err != nil {
			res.fail("%v", err)
		}
	}
	return nil
}

// serve measures the recognition service: csdserve on the traced
// snapshot, a short open-loop run, then its own /metrics.
func (t *tracer) serve(snap string, d *csd.Diagram, reqs [][]geo.Point) error {
	res := t.res
	bodies, want := requestSet(d, reqs)
	var srv *server
	_, err := t.span("serve.start", func() error {
		var err error
		srv, _, err = startServer(t.e, snap)
		return err
	})
	if err != nil {
		return err
	}
	defer srv.stop()
	r := newRecognizer(srv.addr, t.e.workers, bodies, want)
	defer r.close()
	load := OpenLoop{Rate: serveRate, Duration: serveWarmup, Conns: t.e.workers, LateLimit: serveLateLimit}
	warm := load.Run(r.send)
	load.Duration = serveTime
	var lr LoadResult
	t.span("serve.load", func() error { lr = load.Run(r.send); return nil })
	res.tally.Merge(warm.Tally)
	res.tally.Merge(lr.Tally)
	if warm.Behind || lr.Behind {
		res.fail("load generator fell behind its schedule")
	}
	close(r.bad)
	for msg := range r.bad {
		res.fail("serve reply differs from RecognizeBuf: %s", msg)
	}
	m, err := srv.scrape()
	if err != nil {
		return err
	}
	res.set("serve.server_p50_ms", histQuantile(m, "csdm_serve_request_seconds", "recognize", 0.5), "ms")
	res.set("serve.server_p99_ms", histQuantile(m, "csdm_serve_request_seconds", "recognize", 0.99), "ms")
	res.set("serve.requests", m[`csdm_serve_requests_total{route="recognize"}`], "count")
	res.set("serve.shed", m["csdm_serve_shed_total"], "count")
	res.set("serve.errors", m["csdm_serve_errors_total"], "count")
	late, _ := Percentile(lr.LateMs, 0.99)
	res.set("loadgen.late_p99_ms", late, "ms")
	p50, _ := Percentile(lr.LatencyMs, 0.5)
	p99, _ := Percentile(lr.LatencyMs, 0.99)
	res.set("loadgen.p50_ms", p50, "ms")
	res.set("loadgen.p99_ms", p99, "ms")
	return nil
}

// overhead runs the workload's own timed operation twice in this
// process, with and without spans and the program's telemetry, and
// reports traced ÷ untraced wall time.
func (t *tracer) overhead(pois []poi.POI, journeys []trajectory.Journey) error {
	var op func(traced bool) error
	switch t.e.workload {
	case "mine-city":
		op = func(traced bool) error {
			pipe := core.NewPipeline(pois, journeys, t.cfg)
			if traced {
				pipe.SetTrace(obs.New())
			}
			_, err := pipe.MineCtx(context.Background(), core.CSDPM, pattern.DefaultParams())
			return err
		}
	default: // shard-country
		all, err := readPOIs(t.e.path("pois.csv"))
		if err != nil {
			return err
		}
		storePath := t.e.path("overhead.csdstay")
		defer os.Remove(storePath)
		store, err := spill(t.e.path("journeys.csv"), storePath)
		if err != nil {
			return err
		}
		defer store.Close()
		op = func(traced bool) error {
			env := t.env()
			var src shard.StaySource = store
			if traced {
				env.Trace = obs.New()
				src = &timedSource{src: store}
			}
			plan, err := shard.NewPlan(geo.BoundingRect(poi.Locations(all)), shardRows, shardCols, t.cfg.CSD.R3Sigma)
			if err != nil {
				return err
			}
			_, _, err = shard.Build(env, all, src, shard.Config{Plan: plan, Params: t.cfg.CSD, ShardWorkers: shardWorkers})
			return err
		}
	}
	t0 := time.Now()
	if err := op(false); err != nil {
		return err
	}
	untraced := time.Since(t0)
	tracedS, err := t.span("overhead.traced", func() error { return op(true) })
	if err != nil {
		return err
	}
	t.res.set("trace.overhead_ratio", tracedS/untraced.Seconds(), "ratio")
	t.res.info["overhead_untraced_s"] = untraced.Seconds()
	return nil
}

// gcFigures reads the GC cycle count and GC CPU seconds so far.
func gcFigures() (cycles, cpuS float64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		cpuS = s[1].Value.Float64()
	}
	return cycles, cpuS
}

// sampleHeapPeak samples the live heap every 10 ms until stopped and
// then reports its peak as runtime.heap_peak_mb.
func sampleHeapPeak(res *result) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, s[0].Value.Uint64())
			}
			select {
			case <-done:
				res.set("runtime.heap_peak_mb", float64(peak)/(1<<20), "MiB")
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); <-finished }
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.Self
	}
	return out
}

// writeSpans writes the run's spans as JSON next to the run
// directories, one file per traced run.
func writeSpans(e *env, spans []Span) error {
	dir := filepath.Join(filepath.Dir(e.dir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.ReplaceAll(spans[0].Run, "/", "_") + ".json"
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
