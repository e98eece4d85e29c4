package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // outruns the parent: clipped
		{ID: 4, Parent: 2, Name: "b.child", Start: 25, End: 35},
	}
	SelfTimes(spans)
	want := map[string]float64{
		"run":     100 - (40 + 10), // [10,50] ∪ [90,100]
		"a":       20,
		"b":       30 - 10,
		"c":       30,
		"b.child": 10,
	}
	for _, s := range spans {
		if math.Abs(s.Self-want[s.Name]) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := NewRecorder("run-1")
	root := r.Start("root", -1)
	child := r.Start("child", root)
	if d := r.End(child); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].Run != "run-1" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Self > spans[0].End-spans[0].Start || spans[0].Self < 0 {
		t.Errorf("root self %v outside [0, duration]", spans[0].Self)
	}
}
