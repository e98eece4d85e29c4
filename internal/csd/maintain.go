package csd

import (
	"sort"

	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/stage"
)

// Maintainer is the re-entrant, delta-capable counterpart of Build: it
// owns a City Semantic Diagram plus the intermediate construction state
// a one-shot Build discards — the per-POI popularity sums, the
// Algorithm 1 cluster membership per ε_p-connected component, and the
// per-cluster purification results — so that a batch of new stay
// points updates the diagram in time proportional to the dirty region
// instead of the city.
//
// The incremental result is bit-identical to a full Build on the union
// of all stay points, by construction rather than approximation:
//
//   - Popularity (Eq. 2–3) is a kernel sum accumulated in canonical
//     ascending stay-id order; new stays only ever append ids, so a
//     delta batch continues each POI's float-addition chain exactly
//     where the full build's loop would have (foldPopularity).
//   - Algorithm 1 factorizes exactly over the ε_p-connected components
//     of the static POI graph: cluster growth only follows ≤ ε_p edges,
//     so re-running growClusters on one component reproduces the full
//     run's clusters within it. A component is dirty only when some
//     member pair's α popularity-ratio predicate flipped; clean
//     components reuse their retained clusters outright.
//   - Algorithm 2 (purification) reads locations and categories, never
//     popularity, so a cluster whose membership survived the delta
//     reuses its retained purified units.
//   - Merging (Eq. 6–8) reads the popularity-weighted distributions of
//     every unit, and its union-find outcome is global — so it is
//     recomputed globally each delta. It is O(#units), orders of
//     magnitude cheaper than the phases above, and rerunning it is what
//     keeps the guarantee exact instead of halo-approximate (the one
//     deliberate divergence from a purely local re-merge; see
//     DESIGN.md §5h).
//
// Both the initial construction and every delta run the same phase
// 2–4 steps as BuildEnv; a delta lists only the dirty components.
//
// A Maintainer is not safe for concurrent use; each ApplyDelta must
// complete before the next begins. The diagrams it returns are
// immutable and safe to serve concurrently, like Build's.
type Maintainer struct {
	params Params
	pois   []poi.POI
	kernel geo.GaussianKernel

	// stays is the append-only union stay-point store. No index is ever
	// built over it (delta batches index only themselves), so growth is
	// always safe.
	stays *geo.PackedPoints
	// pop is the current canonical-order popularity. Diagrams share its
	// backing array: the maintainer never mutates it in place (every
	// delta copies first), so served generations stay immutable.
	pop []float64

	// phases is the retained phase 2–3 state: the static ε_p range
	// structure (so a component re-run sees exactly the query results
	// the full build saw), the components and their Algorithm 1–2
	// results.
	phases phaseState

	gen     int64
	diagram *Diagram
}

// DeltaStats reports what one ApplyDelta did.
type DeltaStats struct {
	// Generation is the produced diagram's generation.
	Generation int64
	// BatchStays is the number of stay points in the applied batch.
	BatchStays int
	// AffectedPOIs is how many POIs had popularity updated (within R3σ
	// of some batch stay).
	AffectedPOIs int
	// DirtyComponents counts the ε_p components whose α-ratio predicate
	// flipped somewhere, forcing a clustering + purification re-run.
	DirtyComponents int
	// DirtyUnits counts the purified units recomputed in dirty
	// components; ReusedUnits counts the units carried over from the
	// retained state.
	DirtyUnits  int
	ReusedUnits int
}

// NewMaintainer constructs the maintainer and its initial diagram
// (generation 1) with default execution options.
func NewMaintainer(pois []poi.POI, stays []geo.Point, params Params) (*Maintainer, error) {
	return NewMaintainerEnv(stage.Background(), pois, stays, params)
}

// NewMaintainerEnv is the full-control constructor: it runs the same
// construction phases as BuildEnv — on env's worker pool and index
// backend, recording spans under "csd.maintain" — but retains the
// phase 2–3 state ApplyDelta needs. The initial diagram is
// bit-identical to BuildEnv's on the same inputs, with Generation 1.
func NewMaintainerEnv(env stage.Env, pois []poi.POI, stays []geo.Point, params Params) (*Maintainer, error) {
	root := env.StartSpan("csd.maintain")
	defer root.End()

	m := &Maintainer{
		params: params,
		pois:   pois,
		kernel: newKernelFor(params),
		stays:  geo.Pack(stays),
	}
	sp := root.Start("popularity")
	pop, err := popularity(env.Ctx, pois, stays, m.kernel, env.Opt)
	sp.End()
	if err != nil {
		return nil, err
	}
	d, err := buildPhases(env, root, pois, pop, params, &m.phases, nil)
	if err != nil {
		return nil, err
	}
	env.Trace.Add("csd.maintain.components", int64(len(m.phases.comps)))
	m.pop, m.gen, m.diagram = pop, 1, d
	d.Generation = 1
	return m, nil
}

// Diagram returns the current generation's diagram.
func (m *Maintainer) Diagram() *Diagram { return m.diagram }

// Generation returns the current generation number (1 after
// construction, +1 per applied delta).
func (m *Maintainer) Generation() int64 { return m.gen }

// SetGeneration renumbers the current generation (and the diagram's
// lineage header) without touching any retained state — the hook a
// restarted ingester uses to continue a checkpoint directory's
// generation sequence instead of restarting at 1. The parent
// generation is left untouched: renumbering changes the label, not the
// derivation.
func (m *Maintainer) SetGeneration(gen int64) {
	m.gen = gen
	m.diagram.Generation = gen
}

// StayCount returns the number of stay points accumulated so far.
func (m *Maintainer) StayCount() int { return m.stays.Len() }

// ApplyDelta applies one batch of new stay points and returns the next
// generation's diagram: delta popularity over the batch only, α-flip
// dirty marking per ε_p component, Algorithm 1–2 re-runs restricted to
// the dirty components, and a global re-merge + finalize. The result is
// bit-identical to a full Build over the union of every stay point seen
// so far (same units, same member order, same popularity bits), for any
// worker count and index backend.
//
// On error (cancellation, deadline) the maintainer's retained state is
// unchanged and the batch is not applied; the caller may retry.
func (m *Maintainer) ApplyDelta(env stage.Env, batch []geo.Point) (*Diagram, DeltaStats, error) {
	root := env.StartSpan("csd.delta")
	defer root.End()
	st := DeltaStats{BatchStays: len(batch)}

	// Delta popularity: fold the batch into a copy of the sums. Batch-
	// local ascending ids equal global ascending ones, because the
	// batch's ids all follow every existing stay's.
	sp := root.Start("delta.popularity")
	newPop := append([]float64(nil), m.pop...)
	affected, err := foldPopularity(env.Ctx, m.pois, newPop, geo.Pack(batch), m.kernel, env.Opt)
	sp.End()
	if err != nil {
		return nil, st, err
	}
	st.AffectedPOIs = len(affected)

	// Dirty marking: a component must re-cluster only when the α
	// popularity-ratio predicate flipped for some member pair — the one
	// input of Algorithm 1 that popularity feeds (locations, categories
	// and d_v are static). Checking affected×members pairs is
	// conservative and sound: growth examines a subset of those pairs,
	// so "no pair flipped" implies an identical re-run.
	sp = root.Start("delta.dirty")
	dirtySet := make(map[int]bool)
	for _, a := range affected {
		c := m.phases.comp[a]
		if dirtySet[c] {
			continue
		}
		for _, b := range m.phases.comps[c].pois {
			if popRatioOK(m.pop[a], m.pop[b], m.params.Alpha) !=
				popRatioOK(newPop[a], newPop[b], m.params.Alpha) {
				dirtySet[c] = true
				break
			}
		}
	}
	dirty := make([]int, 0, len(dirtySet))
	for c := range dirtySet {
		dirty = append(dirty, c)
	}
	sort.Ints(dirty)
	sp.End()
	st.DirtyComponents = len(dirty)
	env.Trace.Add("csd.delta.dirty_components", int64(len(dirty)))

	// Re-run Algorithms 1–2 on the dirty components against the static
	// location index and the new popularity, then assemble. The phases
	// work on a copy of the component state; the maintainer commits
	// only after everything succeeded.
	view := m.phases
	view.comps = append([]compState(nil), m.phases.comps...)
	d, err := buildPhases(env, root, m.pois, newPop, m.params, &view, dirty)
	if err != nil {
		return nil, st, err
	}
	for c, cs := range view.comps {
		n := len(cs.clusters)
		if !m.params.SkipPurification {
			n = 0
			for _, us := range cs.purified {
				n += len(us)
			}
		}
		if dirtySet[c] {
			st.DirtyUnits += n
		} else {
			st.ReusedUnits += n
		}
	}
	env.Trace.Add("csd.delta.dirty_units", int64(st.DirtyUnits))

	d.Generation, d.ParentGeneration = m.gen+1, m.gen
	m.stays.Append(batch)
	m.pop, m.phases, m.gen, m.diagram = newPop, view, d.Generation, d
	st.Generation = d.Generation
	env.Trace.Add("csd.delta.applied", 1)
	return d, st, nil
}
