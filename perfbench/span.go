package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the traced run.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the recorder was created
	End    float64 `json:"end_ms"`
	Self   float64 `json:"self_ms"` // filled by SelfTimes
}

// Recorder keeps spans in memory until the run ends. Spans of one run
// share its id.
type Recorder struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts a recorder for one run.
func NewRecorder(run string) *Recorder {
	return &Recorder{run: run, t0: time.Now()}
}

func (r *Recorder) since() float64 {
	return float64(time.Since(r.t0)) / float64(time.Millisecond)
}

// Start opens a span under parent (-1 for a root) and returns its id.
func (r *Recorder) Start(name string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: r.run, Name: name, Start: r.since(), End: -1})
	return id
}

// End closes span id and returns its duration in seconds.
func (r *Recorder) End(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = r.since()
	return (s.End - s.Start) / 1e3
}

// Spans returns a copy of the recorded spans with their self times.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	SelfTimes(out)
	return out
}

// SelfTimes sets each span's Self to its duration minus the part of
// its interval that its child spans cover. Children may overlap one
// another (parallel calls) or outrun the parent; only the union of
// their intervals clipped to the parent's counts once.
func SelfTimes(spans []Span) {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	clipped := make([][2]float64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB float64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}
