// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates one workload's inputs from a seed with
// genworkload, runs the program on them, checks the outputs and prints
// its metrics as one JSON object on the last line of standard output.
//
//	perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh builds the programs and this command from source and calls it
// with -bin and -work set; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// workloads maps each workload to its untraced run.
var workloads = map[string]func(*env) (result, error){
	"mine-city":     runMineCity,
	"shard-country": runShard,
}

// env is one benchmark run's settings.
type env struct {
	workload string
	seed     int64
	seconds  float64
	bin      string // directory of the built programs
	dir      string // scratch directory of this run, removed at exit
	workers  int    // worker budget given to the program
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome: metrics plus the correctness verdict and
// the operation tally.
type result struct {
	metrics map[string]metric
	info    map[string]any
	tally   Tally
	errs    []string
}

func newResult() result {
	return result{metrics: map[string]metric{}, info: map[string]any{}}
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "mine-city or shard-country")
		seed     = flag.Int64("seed", 1, "input generator seed")
		seconds  = flag.Float64("seconds", 40, "least time the measured phase lasts")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead")
		bin      = flag.String("bin", "", "directory holding the built csdserve and genworkload")
		work     = flag.String("work", "", "directory for generated inputs and scratch files")
	)
	flag.Parse()
	runFn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *bin == "" || *work == "" {
		return fmt.Errorf("-bin and -work are required (run through run.sh)")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{workload: *workload, seed: *seed, seconds: *seconds, bin: *bin, dir: dir, workers: runtime.NumCPU()}
	if err := genworkload(e, e.dir, e.seed); err != nil {
		return err
	}
	var res result
	if *trace == 1 {
		res, err = runTraced(e)
	} else {
		res, err = runFn(e)
	}
	if err != nil {
		return err
	}
	res.info["workload"] = e.workload
	res.info["seed"] = e.seed
	res.info["nproc"] = runtime.NumCPU()
	res.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.info["go"] = runtime.Version()
	res.info["workers"] = e.workers
	if len(res.errs) > 0 {
		res.info["check_failures"] = res.errs
		for _, msg := range res.errs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": res.info}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   len(res.errs) == 0 && res.tally.Failed == 0,
		"attempted": res.tally.Attempted,
		"failed":    res.tally.Failed,
		"metrics":   res.metrics,
	})
}

// genworkload writes one input set of the workload, generated from
// seed, into dir. The program sees only these files.
func genworkload(e *env, dir string, seed int64) error {
	args := []string{"-seed", fmt.Sprint(seed), "-poi-out", "pois.csv"}
	if e.workload == "shard-country" {
		args = append(args, "-scenario", "country", "-cities", "9")
	}
	args = append(args, "-journeys-out", "journeys.csv")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command(filepath.Join(e.bin, "genworkload"), args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("genworkload %v: %v: %s", args, err, out)
	}
	return nil
}

func (e *env) path(name string) string { return filepath.Join(e.dir, name) }
