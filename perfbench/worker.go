package main

// The worker is one repetition of a batch workload in a fresh process,
// so its peak RSS and GC state belong to that repetition alone. It
// loads its inputs, prints "ready", runs the timed phase, and prints
// one JSON line with what it measured. The parent times set-up from
// the spawn to the "ready" line.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/load"
	"csdm/internal/pattern"
	"csdm/internal/poi"
	"csdm/internal/shard"
	"csdm/internal/stage"
	"csdm/internal/trajectory"
)

// repResult is what one worker repetition reports.
type repResult struct {
	WorkS    float64            `json:"work_s"`     // wall time of the timed phase
	CPUS     float64            `json:"cpu_s"`      // user+sys CPU of the timed phase
	MaxRSSMB float64            `json:"max_rss_mb"` // high-water RSS at the end of the timed phase
	Stays    int                `json:"stays"`      // input stays the timed phase processed
	Tally    Tally              `json:"tally"`
	Digest   string             `json:"digest"`
	Err      string             `json:"err,omitempty"`
	Info     map[string]float64 `json:"info,omitempty"`
}

const (
	// Shard-country's fixed tiling and shard fan-out.
	shardRows, shardCols = 4, 4
	shardWorkers         = 2
	// popCheckPOIs is how many POIs the brute-force popularity check
	// recomputes on shard-country.
	popCheckPOIs = 64
)

func workerMain(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	kind := fs.String("kind", "", "mine or shard")
	dir := fs.String("dir", "", "directory holding the generated inputs")
	workers := fs.Int("workers", 0, "worker budget")
	seed := fs.Int64("seed", 1, "seed for sampled checks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := pipelineConfig(*workers)
	ready := func() { fmt.Println("ready") }
	var res repResult
	var err error
	switch *kind {
	case "mine":
		res, err = workMine(*dir, cfg, ready)
	case "shard":
		res, err = workShard(*dir, cfg, *seed, ready)
	default:
		return fmt.Errorf("unknown worker kind %q", *kind)
	}
	if err != nil {
		res.Err = err.Error()
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// pipelineConfig is csdminer's default configuration at the given
// worker budget.
func pipelineConfig(workers int) core.Config {
	cfg := core.DefaultConfig()
	if workers > 0 {
		cfg.Workers = workers
	}
	return cfg
}

// usage returns the process's user+sys CPU so far and its high-water
// resident set.
func usage() (cpuS, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN(), math.NaN()
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu.Seconds(), float64(ru.Maxrss) / 1024 // Maxrss is KiB on Linux
}

// timed runs the timed phase and fills the wall, CPU and RSS fields.
func timed(res *repResult, work func() error) error {
	cpu0, _ := usage()
	t0 := time.Now()
	err := work()
	res.WorkS = time.Since(t0).Seconds()
	cpu1, rss := usage()
	res.CPUS, res.MaxRSSMB = cpu1-cpu0, rss
	return err
}

func readPOIs(path string) ([]poi.POI, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ps, _, err := poi.ReadCSVOptions(bufio.NewReader(f), load.Options{})
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return ps, nil
}

func readJourneys(path string) ([]trajectory.Journey, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	js, _, err := trajectory.ReadJourneysCSVOptions(bufio.NewReader(f), load.Options{})
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return js, nil
}

// workMine is `csdminer mine` with its default flags: the CSD-PM
// approach through core.Pipeline (diagram, recognition, extraction).
func workMine(dir string, cfg core.Config, ready func()) (repResult, error) {
	var res repResult
	pois, err := readPOIs(filepath.Join(dir, "pois.csv"))
	if err != nil {
		return res, err
	}
	js, err := readJourneys(filepath.Join(dir, "journeys.csv"))
	if err != nil {
		return res, err
	}
	ready()
	var ps []pattern.Pattern
	var d *csd.Diagram
	err = timed(&res, func() error {
		pipe := core.NewPipeline(pois, js, cfg)
		var err error
		if ps, err = pipe.MineCtx(context.Background(), core.CSDPM, pattern.DefaultParams()); err != nil {
			return err
		}
		d, err = pipe.DiagramCtx(context.Background())
		return err
	})
	res.Stays = 2 * len(js)
	res.Tally.Record(err)
	if err != nil {
		return res, err
	}
	res.Digest, err = mineDigest(d, ps)
	res.Info = map[string]float64{"patterns": float64(len(ps))}
	return res, err
}

// mineDigest hashes the diagram payload and the pattern set.
func mineDigest(d *csd.Diagram, ps []pattern.Pattern) (string, error) {
	h := sha256.New()
	if err := writePayload(h, d); err != nil {
		return "", err
	}
	if err := pattern.WriteJSON(h, ps); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writePayload writes d's snapshot with its lineage cleared, so two
// diagrams with the same content write the same bytes whatever their
// generation.
func writePayload(w io.Writer, d *csd.Diagram) error {
	c := *d
	c.Generation, c.ParentGeneration = 0, 0
	return c.Write(w)
}

func diagramDigest(d *csd.Diagram) (string, error) {
	h := sha256.New()
	if err := writePayload(h, d); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// workShard is the out-of-core sharded build: the journeys are
// spilled into a .csdstay store during set-up, then shard.Build runs
// 4×4 with two shard workers over it.
func workShard(dir string, cfg core.Config, seed int64, ready func()) (repResult, error) {
	var res repResult
	pois, err := readPOIs(filepath.Join(dir, "pois.csv"))
	if err != nil {
		return res, err
	}
	storePath := filepath.Join(dir, fmt.Sprintf("stays-%d.csdstay", os.Getpid()))
	defer os.Remove(storePath)
	store, err := spill(filepath.Join(dir, "journeys.csv"), storePath)
	if err != nil {
		return res, err
	}
	defer store.Close()
	ready()
	var d *csd.Diagram
	var st shard.Stats
	err = timed(&res, func() error {
		plan, err := shard.NewPlan(geo.BoundingRect(poi.Locations(pois)), shardRows, shardCols, cfg.CSD.R3Sigma)
		if err != nil {
			return err
		}
		ctx := context.Background()
		env := stage.Env{Ctx: ctx, Run: ctx, Opt: cfg.ExecOptions()}
		d, st, err = shard.Build(env, pois, store, shard.Config{Plan: plan, Params: cfg.CSD, ShardWorkers: shardWorkers})
		return err
	})
	res.Stays = store.Len()
	res.Tally.Record(err)
	if err != nil {
		return res, err
	}
	if err := checkPopularity(d, store, seed); err != nil {
		return res, err
	}
	if res.Digest, err = diagramDigest(d); err != nil {
		return res, err
	}
	res.Info = map[string]float64{
		"loaded_stays": float64(st.LoadedStays), "total_stays": float64(st.TotalStays),
		"max_shard_stays": float64(st.MaxShardStays), "units": float64(len(d.Units)),
	}
	return res, nil
}

// spill streams a journey file into a new .csdstay store, pickup then
// dropoff per journey (the canonical stay-id order), and opens it.
func spill(journeys, storePath string) (*shard.StayStore, error) {
	w, err := shard.CreateStayStore(storePath, 0)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(journeys)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, err = trajectory.StreamJourneysCSV(bufio.NewReader(f), load.Options{}, func(j trajectory.Journey) error {
		return w.Append([]geo.Point{j.Pickup, j.Dropoff})
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("spill %s: %w", journeys, err)
	}
	return shard.OpenStayStore(storePath)
}

// allStays reads every stay of a store back in stay-id order.
func allStays(src shard.StaySource) ([]geo.Point, error) {
	ids, pp, err := src.LoadRect(geo.Rect{Min: geo.Point{Lon: -180, Lat: -90}, Max: geo.Point{Lon: 180, Lat: 90}})
	if err != nil {
		return nil, err
	}
	out := make([]geo.Point, src.Len())
	for k, id := range ids {
		out[id] = pp.At(k)
	}
	return out, nil
}

// checkPopularity recomputes Equations 2–3 by brute force for a seeded
// sample of POIs — every stay within R3σ, in ascending stay id, summed
// with the kernel's Weight — and requires the diagram's popularity to
// match bit for bit.
func checkPopularity(d *csd.Diagram, src shard.StaySource, seed int64) error {
	stays, err := allStays(src)
	if err != nil {
		return err
	}
	k := d.Kernel()
	r := k.Radius()
	dLat := r/111000 + 1e-6
	// Sort stay ids by latitude once so each sampled POI scans a band.
	byLat := make([]int, len(stays))
	for i := range byLat {
		byLat[i] = i
	}
	sort.Slice(byLat, func(a, b int) bool { return stays[byLat[a]].Lat < stays[byLat[b]].Lat })
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < popCheckPOIs; n++ {
		i := rng.Intn(len(d.POIs))
		loc := d.POIs[i].Location
		lo := sort.Search(len(byLat), func(j int) bool { return stays[byLat[j]].Lat >= loc.Lat-dLat })
		var ids []int
		for j := lo; j < len(byLat) && stays[byLat[j]].Lat <= loc.Lat+dLat; j++ {
			if geo.Haversine(loc, stays[byLat[j]]) <= r {
				ids = append(ids, byLat[j])
			}
		}
		sort.Ints(ids)
		var sum float64
		for _, id := range ids {
			sum += k.Weight(loc, stays[id])
		}
		if math.Float64bits(sum) != math.Float64bits(d.Pop[i]) {
			return fmt.Errorf("popularity of POI %d: sharded %v, brute force %v", i, d.Pop[i], sum)
		}
	}
	return nil
}
