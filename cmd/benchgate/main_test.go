package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csdm/internal/benchledger"
)

func ptr(x float64) *float64 { return &x }

// baseLedger is a slice of a real ledger: one record per gate kind
// and direction.
func baseLedger() []benchledger.Record {
	return []benchledger.Record{
		{Name: "mine.workers-1.patterns", Layer: "mine", Unit: "count", Better: "higher", Value: 129, Tol: ptr(0)},
		{Name: "mine.workers-1.ns_per_op", Layer: "mine", Unit: "ns", Better: "lower", Value: 1e9, Tol: ptr(0.10)},
		{Name: "delta.fraction-0.01.speedup", Layer: "delta", Unit: "ratio", Better: "higher", Value: 6.3, Tol: ptr(0.9), Limit: ptr(5)},
		{Name: "shard.2x2.resident_fraction", Layer: "shard", Unit: "ratio", Better: "lower", Value: 0.49, Limit: ptr(0.75)},
		{Name: "serve.concurrency-4.qps", Layer: "serve", Unit: "qps", Better: "higher", Value: 10000, Tol: ptr(0.9)},
		{Name: "serve.concurrency-4.errors", Layer: "serve", Unit: "count", Better: "lower", Value: 0, Limit: ptr(0)},
		{Name: "serve.concurrency-4.shed", Layer: "serve", Unit: "count", Better: "lower", Value: 0},
	}
}

// set returns a copy of recs with the named record's value replaced.
func set(recs []benchledger.Record, name string, v float64) []benchledger.Record {
	out := append([]benchledger.Record(nil), recs...)
	for i := range out {
		if out[i].Name == name {
			out[i].Value = v
			return out
		}
	}
	panic("no record " + name)
}

func writeLedger(t *testing.T, name string, recs []benchledger.Record) string {
	t.Helper()
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateDoctoredCandidates runs the comparator on a doctored copy of
// the baseline and pins its exit status per gate kind.
func TestGateDoctoredCandidates(t *testing.T) {
	base := baseLedger()
	cases := []struct {
		name string
		cand []benchledger.Record
		want int
		note string // a line the report must contain, when set
	}{
		{"identical", base, 0, ""},
		{"exact mismatch below", set(base, "mine.workers-1.patterns", 128), 1, "not equal to the baseline"},
		{"exact mismatch above", set(base, "mine.workers-1.patterns", 130), 1, "not equal to the baseline"},
		{"within tol, lower", set(base, "mine.workers-1.ns_per_op", 1.09e9), 0, ""},
		{"tol exceeded, lower", set(base, "mine.workers-1.ns_per_op", 1.2e9), 1, "worse than the baseline"},
		{"within tol, higher", set(base, "serve.concurrency-4.qps", 1100), 0, ""},
		{"tol exceeded, higher", set(base, "serve.concurrency-4.qps", 900), 1, "worse than the baseline"},
		{"limit violated, lower", set(base, "shard.2x2.resident_fraction", 0.8), 1, "past the limit"},
		{"limit violated, higher", set(base, "delta.fraction-0.01.speedup", 4), 1, "past the limit"},
		{"limit 0 violated", set(base, "serve.concurrency-4.errors", 1), 1, "past the limit"},
		{"ungated record moves freely", set(base, "serve.concurrency-4.shed", 500), 0, ""},
		{"tol record without baseline", append(append([]benchledger.Record(nil), base...),
			benchledger.Record{Name: "mine.workers-8.ns_per_op", Unit: "ns", Better: "lower", Value: 1, Tol: ptr(0.10)}), 1, "no baseline record"},
		{"baseline-only record", base[1:], 0, "baseline only, not gated"},
		{"limit-only record without baseline", append(append([]benchledger.Record(nil), base...),
			benchledger.Record{Name: "shard.5x5.resident_fraction", Unit: "ratio", Better: "lower", Value: 0.2, Limit: ptr(0.75)}), 0, "ok (no baseline record)"},
		{"no record in common", []benchledger.Record{{Name: "shard.5x5.resident_fraction", Unit: "ratio", Better: "lower", Value: 0.2, Limit: ptr(0.75)}}, 2, ""},
	}
	basePath := writeLedger(t, "base.json", base)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			got := run([]string{"-baseline", basePath, "-candidate", writeLedger(t, "cand.json", tc.cand)}, &out, &errOut)
			if got != tc.want {
				t.Fatalf("exit %d, want %d\n%s%s", got, tc.want, out.String(), errOut.String())
			}
			if tc.note != "" && !strings.Contains(out.String(), tc.note) {
				t.Fatalf("report lacks %q:\n%s", tc.note, out.String())
			}
		})
	}
}

// TestGateUsage pins exit status 2 for anything but the two flags and
// for ledgers no gate could read.
func TestGateUsage(t *testing.T) {
	good := writeLedger(t, "good.json", baseLedger())
	dup := writeLedger(t, "dup.json", append(baseLedger(), baseLedger()[0]))
	bad := baseLedger()
	bad[0].Better = "up"
	badBetter := writeLedger(t, "bad.json", bad)
	for _, args := range [][]string{
		{},
		{"-baseline", good},
		{"-baseline", good, "-candidate", good, "-tolerance", "0.1"},
		{"-baseline", good, "-candidate", good, "extra"},
		{"-baseline", good, "-candidate", filepath.Join(t.TempDir(), "missing.json")},
		{"-baseline", good, "-candidate", dup},
		{"-baseline", badBetter, "-candidate", good},
	} {
		if got := run(args, new(bytes.Buffer), new(bytes.Buffer)); got != 2 {
			t.Errorf("%q: exit %d, want 2", args, got)
		}
	}
}
