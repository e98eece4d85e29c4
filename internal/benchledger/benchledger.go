// Package benchledger defines the record of the BENCH.json bench
// ledger: the root package's TestEmitBench writes a flat JSON list of
// them and cmd/benchgate compares two such lists.
package benchledger

// Record is one measured number and the gates that guard it.
type Record struct {
	// Name identifies the record across ledgers ("mine.workers-1.ns_per_op").
	Name string `json:"name"`
	// Layer is the ledger section that measured it (mine, delta, shard, serve).
	Layer string `json:"layer"`
	Unit  string `json:"unit"`
	// Better is "lower" or "higher": the direction of improvement.
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	// Tol is the largest relative worsening allowed against the
	// baseline record of the same name, in the Better direction; 0
	// means the value must equal the baseline's. Nil: not compared.
	Tol *float64 `json:"tol,omitempty"`
	// Limit is an absolute bound on Value itself: a ceiling when lower
	// is better, a floor when higher is. Nil: no bound.
	Limit *float64 `json:"limit,omitempty"`
}
