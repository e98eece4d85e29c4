package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// rep is one worker repetition as the parent saw it.
type rep struct {
	SetupS float64
	Res    repResult
}

// runWorker spawns one worker repetition and waits for it. Set-up is
// timed from the spawn to the worker's "ready" line.
func runWorker(args ...string) (rep, error) {
	self, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	cmd := exec.Command(self, append([]string{"worker"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return rep{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return rep{}, err
	}
	var r rep
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if line == "ready" {
			r.SetupS = time.Since(t0).Seconds()
			continue
		}
		last = line
	}
	werr := cmd.Wait()
	if last == "" {
		return r, fmt.Errorf("worker %v: no result (%v)", args, werr)
	}
	if err := json.Unmarshal([]byte(last), &r.Res); err != nil {
		return r, fmt.Errorf("worker %v: %w", args, err)
	}
	if werr != nil {
		return r, fmt.Errorf("worker %v: %w", args, werr)
	}
	if r.Res.Err != "" {
		return r, fmt.Errorf("worker %v: %s", args, r.Res.Err)
	}
	if r.SetupS == 0 {
		return r, fmt.Errorf("worker %v: never became ready", args)
	}
	return r, nil
}
