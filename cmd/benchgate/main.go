// Command benchgate compares two bench ledgers — flat JSON lists of
// records, written by TestEmitBench with BENCH_JSON set — and fails
// when a candidate record breaks its gate.
//
// Usage:
//
//	benchgate -baseline BENCH.json -candidate bench_candidate.json
//
// A record (benchledger.Record) is {name, layer, unit, better, value,
// tol?, limit?}, where better is "lower" or "higher". Every check is
// one of three kinds:
//
//   - tol > 0: the largest relative worsening allowed against the
//     baseline record of the same name, in the better direction
//     (lower: value <= base*(1+tol); higher: value >= base*(1-tol)).
//   - tol = 0: exact — the value must equal the baseline's. This gates
//     the deterministic counts (patterns, units).
//   - limit: an absolute bound on the candidate's own value (lower:
//     value <= limit; higher: value >= limit), checked with or without
//     a baseline record.
//
// A record with neither tol nor limit is stored but not gated. Gates
// are read from the candidate, so the emitter's table is the one place
// they are written.
//
// A candidate record with tol but no baseline record fails: a silently
// skipped line is a gate that never gates. A baseline-only record is
// reported but does not fail. Exit status: 0 pass, 1 a gate failed, 2
// bad usage, an unreadable ledger, or no record in common.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"csdm/internal/benchledger"
)

// rowFmt lays out one line of the report table.
const rowFmt = "%-36s  %-6s  %-15s  %-26s  %s\n"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "committed ledger (BENCH.json)")
	candidate := fs.String("candidate", "", "freshly measured ledger")
	if err := fs.Parse(args); err != nil || *baseline == "" || *candidate == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: benchgate -baseline BENCH.json -candidate bench_candidate.json")
		return 2
	}
	base, err := readLedger(*baseline)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	cand, err := readLedger(*candidate)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	byName := make(map[string]benchledger.Record, len(base))
	for _, b := range base {
		byName[b.Name] = b
	}
	failed, compared := false, 0
	fmt.Fprintf(stdout, rowFmt, "record", "unit", "gate", "base -> cand", "status")
	for _, c := range cand {
		b, ok := byName[c.Name]
		delete(byName, c.Name)
		values := fmt.Sprintf("- -> %.4g", c.Value)
		if ok {
			compared++
			values = fmt.Sprintf("%.4g -> %.4g", b.Value, c.Value)
		}
		status := "ok"
		if why := verdict(c, b, ok); why != "" {
			status = "FAIL (" + why + ")"
			failed = true
		} else if !ok {
			status = "ok (no baseline record)"
		}
		fmt.Fprintf(stdout, rowFmt, c.Name, c.Unit, gateOf(c), values, status)
	}
	for _, b := range base {
		if _, only := byName[b.Name]; only {
			fmt.Fprintf(stdout, rowFmt, b.Name, b.Unit, "-", fmt.Sprintf("%.4g -> -", b.Value), "baseline only, not gated")
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "benchgate: the ledgers have no record in common")
		return 2
	}
	if failed {
		return 1
	}
	return 0
}

// verdict returns why candidate record c fails its gates against
// baseline record b (present when hasBase), or "" when it passes.
func verdict(c, b benchledger.Record, hasBase bool) string {
	lower := c.Better == "lower"
	if l := c.Limit; l != nil && (lower && c.Value > *l || !lower && c.Value < *l) {
		return fmt.Sprintf("%.4g is past the limit %.4g", c.Value, *l)
	}
	switch tol := c.Tol; {
	case tol == nil:
		return ""
	case !hasBase:
		return "gated by tol but no baseline record"
	case b.Unit != c.Unit:
		return fmt.Sprintf("unit %q, baseline %q", c.Unit, b.Unit)
	case *tol == 0 && c.Value != b.Value:
		return "not equal to the baseline"
	case lower && c.Value > b.Value*(1+*tol), !lower && c.Value < b.Value*(1-*tol):
		return fmt.Sprintf("worse than the baseline by more than %.0f%%", *tol*100)
	}
	return ""
}

// gateOf renders a record's gates for the report table.
func gateOf(r benchledger.Record) string {
	var g []string
	switch {
	case r.Tol != nil && *r.Tol == 0:
		g = append(g, "exact")
	case r.Tol != nil:
		g = append(g, fmt.Sprintf("tol %g", *r.Tol))
	}
	if r.Limit != nil {
		g = append(g, fmt.Sprintf("limit %g", *r.Limit))
	}
	if len(g) == 0 {
		return "-"
	}
	return strings.Join(g, " ")
}

// readLedger decodes a ledger and rejects records no gate could read:
// an empty or repeated name, or a better direction other than lower
// or higher.
func readLedger(path string) ([]benchledger.Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []benchledger.Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		switch {
		case r.Name == "" || seen[r.Name]:
			return nil, fmt.Errorf("%s: empty or repeated record name %q", path, r.Name)
		case r.Better != "lower" && r.Better != "higher":
			return nil, fmt.Errorf("%s: record %s: better is %q, want lower or higher", path, r.Name, r.Better)
		}
		seen[r.Name] = true
	}
	return recs, nil
}
