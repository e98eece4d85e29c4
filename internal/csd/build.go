package csd

import (
	"context"
	"math"
	"sort"

	"csdm/internal/exec"
	"csdm/internal/fault"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/obs"
	"csdm/internal/poi"
	"csdm/internal/stage"
)

// Build constructs the City Semantic Diagram from a POI dataset and the
// stay points derived from a trajectory corpus (§4.1). Stay points only
// drive the popularity model; they are not stored.
func Build(pois []poi.POI, stays []geo.Point, params Params) *Diagram {
	d, _ := BuildEnv(stage.Background(), pois, stays, params)
	return d
}

// BuildEnv is the full-control constructor: each construction stage —
// popularity model, popularity clustering (Algorithm 1), semantic
// purification (Algorithm 2), unit merging — records a span under
// "csd.build", with counters for clusters grown, purification splits,
// units merged and singletons kept. The popularity sums, the
// per-component clustering and the purification split trees run on
// env's worker pool; env.Opt.Index selects the spatial backend of
// every range structure built along the way. The diagram is identical
// for any worker budget. A canceled env.Ctx aborts between units of
// work with its error and a nil diagram.
func BuildEnv(env stage.Env, pois []poi.POI, stays []geo.Point, params Params) (*Diagram, error) {
	root := env.StartSpan("csd.build")
	defer root.End()
	sp := root.Start("popularity")
	err := fault.Hit("csd.popularity")
	var pop []float64
	if err == nil {
		pop, err = popularity(env.Ctx, pois, stays, newKernelFor(params), env.Opt)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	exec.Note(env.Trace, len(pois), exec.Workers(env.Opt.Workers))
	return buildPhases(env, root, pois, pop, params, &phaseState{}, nil)
}

// BuildFromPopularity runs construction phases 2–4 — Algorithm 1
// clustering, Algorithm 2 purification, unit merging and finalize — on
// a popularity vector computed elsewhere. It is the assembly half of
// the sharded build: internal/shard computes per-POI popularity one
// tile at a time (exact, because the Gaussian kernel has compact R3σ
// support), scatters it into one global vector, and hands it here. The
// result is bit-identical to BuildEnv on the same (pois, stays) pair
// whenever pop matches BuildEnv's popularity stage bit-for-bit, for
// any worker count and index backend.
func BuildFromPopularity(env stage.Env, pois []poi.POI, pop []float64, params Params) (*Diagram, error) {
	root := env.StartSpan("csd.frompop")
	defer root.End()
	return buildPhases(env, root, pois, pop, params, &phaseState{}, nil)
}

// newKernelFor builds the diagram's Gaussian kernel from its params.
func newKernelFor(params Params) geo.GaussianKernel {
	return geo.NewGaussianKernel(params.R3Sigma)
}

// phaseState is what phases 2–3 leave behind: the static ε_p range
// structure over the POI locations, the ε_p-connected components it
// decomposes the POIs into, and each component's Algorithm 1–2
// results. A one-shot build drops it; the Maintainer keeps it so a
// delta re-runs Algorithms 1–2 on the components it dirtied only.
type phaseState struct {
	locIdx index.Index
	comp   []int // POI id → component id
	comps  []compState
}

// compState is the Algorithm 1–2 state of one ε_p-connected component.
type compState struct {
	// pois are the component's members, ascending.
	pois []int
	// clusters are the kept Algorithm 1 clusters grown within the
	// component, in seed order (each cluster's first element is its
	// seed, the minimum member id).
	clusters [][]int
	// leftover are members in no kept cluster, ascending.
	leftover []int
	// purified[i] are the Algorithm 2 unit member lists of clusters[i]
	// (nil when purification is skipped).
	purified [][][]int
}

// buildPhases is the one implementation of construction phases 2–4
// behind every constructor: it re-runs Algorithms 1 and 2 on the dirty
// components of st (every component when st is new), then assembles
// the diagram from all of st's components on pop. Each step records
// its span under root and passes its fault site first. On error st's
// listed components may hold partial results; callers that must not
// lose state pass a copy.
func buildPhases(env stage.Env, root *obs.Span, pois []poi.POI, pop []float64, params Params, st *phaseState, dirty []int) (*Diagram, error) {
	env.Trace.SetGauge("index.backend", float64(env.Opt.Index))
	d := &Diagram{Params: params, POIs: pois, Pop: pop, kernel: newKernelFor(params)}
	dirty, err := d.cluster(env, root, st, dirty)
	if err != nil {
		return nil, err
	}
	if !params.SkipPurification {
		if err := d.purify(env, root, st.comps, dirty); err != nil {
			return nil, err
		}
	}
	if err := d.assemble(env, root, st.comps); err != nil {
		return nil, err
	}
	return d, nil
}

// cluster is Algorithm 1 (Popularity Based Clustering) fanned out over
// the dirty ε_p components on the worker pool, replacing each one's
// clusters and leftover. Cluster growth only follows ≤ ε_p edges, so a
// per-component run grows exactly the clusters a single ascending-seed
// pass over every POI grows within that component. A new st is first
// decomposed into components, all of them dirty; cluster returns the
// components it ran on.
func (d *Diagram) cluster(env stage.Env, root *obs.Span, st *phaseState, dirty []int) ([]int, error) {
	sp := root.Start("clustering")
	defer sp.End()
	if err := fault.Hit("csd.clustering"); err != nil {
		return nil, err
	}
	if st.locIdx == nil {
		st.locIdx = index.New(env.Opt.Index, poi.Locations(d.POIs), d.Params.EpsP)
		var members [][]int
		st.comp, members = epsComponents(d.POIs, st.locIdx, d.Params.EpsP)
		st.comps = make([]compState, len(members))
		dirty = make([]int, len(members))
		for c, ms := range members {
			st.comps[c].pois = ms
			dirty[c] = c
		}
	}
	// Shared across the fan-out: every POI a component run touches is a
	// member of that component, so concurrent runs write disjoint
	// elements.
	n := len(d.POIs)
	removed, inCluster := make([]bool, n), make([]bool, n)
	scratch := make([]growScratch, exec.Slots(env.Opt.Workers, len(dirty)))
	err := exec.ParallelForSlots(env.Ctx, env.Opt.Workers, len(dirty), func(slot, k int) error {
		cs := &st.comps[dirty[k]]
		clusters, leftover, err := d.growClusters(env.Ctx, st.locIdx, cs.pois, removed, inCluster, &scratch[slot])
		*cs = compState{pois: cs.pois, clusters: clusters, leftover: leftover}
		return err
	})
	if err != nil {
		return nil, err
	}
	var grown int
	for _, c := range dirty {
		grown += len(st.comps[c].clusters)
	}
	env.Trace.Add("csd.clusters.grown", int64(grown))
	return dirty, nil
}

// growClusters is the growth loop of Algorithm 1 over an explicit seed
// order: each not-yet-removed seed grows a cluster by flood-fill over
// the ε_p range structure, keeping clusters of MinPts or more; seeds
// that end up in no kept cluster come back as leftover, in seed order.
// removed ("P ← P − {p}") and inCluster are the caller's bookkeeping
// and must be false for every POI reachable from seeds. The cluster
// step passes one ε_p component's members (ascending) at a time.
// Growth is inherently sequential (each removal changes the candidate
// set), so the loop stays on one goroutine and only polls ctx between
// seeds.
func (d *Diagram) growClusters(ctx context.Context, locIdx index.Index, seeds []int, removed, inCluster []bool, sc *growScratch) (clusters [][]int, leftover []int, err error) {
	queue, nbr, clBuf := sc.queue, sc.nbr, sc.clBuf
	defer func() { sc.queue, sc.nbr, sc.clBuf = queue, nbr, clBuf }()
	// enqueue appends the not-yet-removed POIs within ε_p of POI i —
	// the range(p, ε_p, P) of Algorithm 1's work queue V.
	enqueue := func(i int) {
		nbr = locIdx.WithinAppend(d.POIs[i].Location, d.Params.EpsP, nbr[:0])
		for _, j := range nbr {
			if !removed[j] {
				queue = append(queue, j)
			}
		}
	}
	for _, seed := range seeds {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if removed[seed] {
			continue
		}
		removed[seed] = true
		clBuf = append(clBuf[:0], seed)
		queue = queue[:0]
		enqueue(seed)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if removed[j] {
				continue
			}
			// Line 5: mutual popularity similarity against the seed.
			if !popRatioOK(d.Pop[seed], d.Pop[j], d.Params.Alpha) {
				continue
			}
			// Line 6: vertically stacked or same semantic property.
			if geo.Haversine(d.POIs[seed].Location, d.POIs[j].Location) > d.Params.DV &&
				d.POIs[j].Major() != d.POIs[seed].Major() {
				continue
			}
			removed[j] = true
			clBuf = append(clBuf, j)
			enqueue(j)
		}
		if len(clBuf) >= d.Params.MinPts {
			clusters = append(clusters, append([]int(nil), clBuf...))
			for _, i := range clBuf {
				inCluster[i] = true
			}
		}
	}
	for _, i := range seeds {
		if !inCluster[i] {
			leftover = append(leftover, i)
		}
	}
	return clusters, leftover, nil
}

// growScratch is growClusters' reusable scratch: the growth queue, the
// raw range-query buffer and the candidate cluster. A kept cluster is
// copied out of clBuf, so reuse never aliases a result — and the
// (common) sub-MinPts seeds allocate nothing at all. The cluster step
// keeps one per worker slot, so its many small components share it too.
type growScratch struct{ queue, nbr, clBuf []int }

// epsComponents decomposes the POI set into ε_p-connected components by
// flood fill over locIdx. comp maps POI id → component id; members
// lists each component's POIs ascending, with components ordered by
// their minimum member id. The member lists are disjoint windows of one
// backing array, each filled as its component's flood-fill queue.
func epsComponents(pois []poi.POI, locIdx index.Index, epsP float64) (comp []int, members [][]int) {
	n := len(pois)
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	all := make([]int, 0, n)
	var nbr []int
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		c, start := len(members), len(all)
		comp[i] = c
		all = append(all, i)
		for qi := start; qi < len(all); qi++ {
			nbr = locIdx.WithinAppend(pois[all[qi]].Location, epsP, nbr[:0])
			for _, k := range nbr {
				if comp[k] < 0 {
					comp[k] = c
					all = append(all, k)
				}
			}
		}
		ms := all[start:len(all):len(all)]
		sort.Ints(ms)
		members = append(members, ms)
	}
	return comp, members
}

// purify implements Algorithm 2 (Semantic Purification) for every
// cluster of the dirty components: clusters that are neither
// single-semantic nor spatially tight are split at the median KL
// divergence from the center POI's local semantic distribution, until
// every cluster qualifies as a fine-grained unit. Each cluster's split
// tree is independent of the others, so the clusters fan out over the
// worker pool. KL and fallback-major splits are counted on env.Trace.
func (d *Diagram) purify(env stage.Env, root *obs.Span, comps []compState, dirty []int) error {
	sp := root.Start("purification")
	defer sp.End()
	if err := fault.Hit("csd.purification"); err != nil {
		return err
	}
	type ref struct{ c, i int }
	var refs []ref
	for _, c := range dirty {
		cs := &comps[c]
		cs.purified = make([][][]int, len(cs.clusters))
		for i := range cs.clusters {
			refs = append(refs, ref{c, i})
		}
	}
	exec.Note(env.Trace, len(refs), exec.Workers(env.Opt.Workers))
	return exec.ParallelFor(env.Ctx, env.Opt.Workers, len(refs), func(k int) error {
		r := refs[k]
		comps[r.c].purified[r.i] = d.purifyCluster(comps[r.c].clusters[r.i], env.Trace)
		return nil
	})
}

// purifyCluster runs one cluster's split tree to completion. The paper
// picks sub-clusters randomly; a work stack is equivalent and
// deterministic. The purifier caches the cluster's planar coordinates,
// major categories and pairwise kernel weights for the whole tree, so
// every sub-cluster works in local index space and no weight is
// computed twice.
func (d *Diagram) purifyCluster(cl []int, tr *obs.Trace) [][]int {
	pu := newPurifier(d, cl)
	local := make([]int, len(cl))
	for a := range local {
		local[a] = a
	}
	work := [][]int{local}
	var units [][]int
	for len(work) > 0 {
		ci := work[len(work)-1]
		work = work[:len(work)-1]
		if pu.singleSemantic(ci) || pu.variance(ci) < d.Params.VMin {
			units = append(units, pu.globalize(ci))
			continue
		}
		kept, split := pu.splitByKL(ci)
		if len(split) == 0 || len(kept) == 0 {
			// All KL values coincide (perfectly symmetric mixture); no
			// median split is possible. Fall back to splitting off the
			// largest single-major group, which always makes progress
			// on a multi-semantic cluster.
			kept, split = pu.splitByMajor(ci)
			if len(split) == 0 {
				units = append(units, pu.globalize(ci))
				continue
			}
			tr.Add("csd.purify.major_splits", 1)
		} else {
			tr.Add("csd.purify.kl_splits", 1)
		}
		work = append(work, kept, split)
	}
	return units
}

func medianOf(vals []float64) float64 {
	return medianSorting(append([]float64(nil), vals...))
}

// medianSorting returns the median of s, sorting it in place.
func medianSorting(s []float64) float64 {
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// assemble materializes d's units from every component's state —
// phase 4 plus the ordering that makes the result independent of how
// the components were scheduled — then merges, adds singletons and
// finalizes.
func (d *Diagram) assemble(env stage.Env, root *obs.Span, comps []compState) error {
	tr := env.Trace
	units, leftover := unitOrder(comps, d.Params.SkipPurification)
	if !d.Params.SkipMerging {
		sp := root.Start("merging")
		before := len(units)
		err := fault.Hit("csd.merging")
		if err == nil {
			units, leftover, err = d.merge(env.Ctx, units, leftover, env.Opt.Index)
		}
		sp.End()
		if err != nil {
			return err
		}
		tr.Add("csd.units.merged", int64(before-len(units)))
	}
	if d.Params.KeepSingletons {
		tr.Add("csd.singletons.kept", int64(len(leftover)))
		for _, i := range leftover {
			units = append(units, []int{i})
		}
	}
	sp := root.Start("finalize")
	d.finalize(units, env.Opt.Index)
	sp.End()
	tr.Add("csd.units.final", int64(len(d.Units)))
	return nil
}

// unitOrder lays the components' pre-merge units and leftovers out in
// the one canonical order. Clusters go in ascending seed order — the
// order a single ascending-seed Algorithm 1 pass grows them in, since
// components interleave in id space. Purified units are the per-cluster
// unit lists concatenated in reverse cluster order: the original
// sequential purification popped one LIFO stack seeded with every
// cluster, so it emitted cluster n-1's tree first, and unit ids have
// kept that order. Leftovers go ascending. Every unit is a fresh copy,
// because merge and finalize append and sort in place and a
// Maintainer's component state must survive them.
func unitOrder(comps []compState, skipPurification bool) (units [][]int, leftover []int) {
	type ref struct{ c, i int }
	var refs []ref
	for c := range comps {
		for i := range comps[c].clusters {
			refs = append(refs, ref{c, i})
		}
		leftover = append(leftover, comps[c].leftover...)
	}
	sort.Slice(refs, func(a, b int) bool {
		return comps[refs[a].c].clusters[refs[a].i][0] < comps[refs[b].c].clusters[refs[b].i][0]
	})
	sort.Ints(leftover)
	if skipPurification {
		for _, r := range refs {
			units = append(units, append([]int(nil), comps[r.c].clusters[r.i]...))
		}
		return units, leftover
	}
	for j := len(refs) - 1; j >= 0; j-- {
		r := refs[j]
		for _, u := range comps[r.c].purified[r.i] {
			units = append(units, append([]int(nil), u...))
		}
	}
	return units, leftover
}

// merge implements the semantic-unit merging step: nearby units whose
// popularity-weighted semantic distributions (Equation (6)) have cosine
// similarity (Equation (8)) above the threshold fuse into one, and
// leftover POIs attach to a compatible nearby unit. It returns the
// merged clusters and the leftovers that attached nowhere. Union-find
// order matters, so the step is sequential; ctx is polled per unit.
func (d *Diagram) merge(ctx context.Context, clusters [][]int, leftover []int, kind index.Kind) ([][]int, []int, error) {
	if len(clusters) == 0 {
		return clusters, leftover, nil
	}
	parent := make([]int, len(clusters))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	centers := make([]geo.Point, len(clusters))
	dists := make([][]float64, len(clusters))
	for i, cl := range clusters {
		centers[i] = d.clusterCentroid(cl)
		dists[i] = d.popWeightedDistribution(cl)
	}
	centerIdx := index.New(kind, centers, d.Params.MergeDist)
	var nbr []int // range-query scratch, reused across both query loops
	for i := range clusters {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		nbr = centerIdx.WithinAppend(centers[i], d.Params.MergeDist, nbr[:0])
		for _, j := range nbr {
			if j <= i {
				continue
			}
			if cosine(dists[i], dists[j]) >= d.Params.MergeCos {
				union(i, j)
			}
		}
	}

	groups := make(map[int][]int)
	for i := range clusters {
		r := find(i)
		groups[r] = append(groups[r], clusters[i]...)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	merged := make([][]int, 0, len(groups))
	for _, r := range roots {
		merged = append(merged, groups[r])
	}

	// Attach leftover POIs to compatible nearby units.
	mergedCenters := make([]geo.Point, len(merged))
	mergedDists := make([][]float64, len(merged))
	for i, cl := range merged {
		mergedCenters[i] = d.clusterCentroid(cl)
		mergedDists[i] = d.popWeightedDistribution(cl)
	}
	mIdx := index.New(kind, mergedCenters, d.Params.MergeDist)
	var unattached []int
	var single [poi.NumMajors]float64
	for _, p := range leftover {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		single[d.POIs[p].Major()] = 1
		bestUnit, bestDist := -1, d.Params.MergeDist+1
		nbr = mIdx.WithinAppend(d.POIs[p].Location, d.Params.MergeDist, nbr[:0])
		for _, u := range nbr {
			if cosine(single[:], mergedDists[u]) < d.Params.MergeCos {
				continue
			}
			if dd := geo.Haversine(d.POIs[p].Location, mergedCenters[u]); dd < bestDist {
				bestUnit, bestDist = u, dd
			}
		}
		if bestUnit >= 0 {
			merged[bestUnit] = append(merged[bestUnit], p)
		} else {
			unattached = append(unattached, p)
		}
		single[d.POIs[p].Major()] = 0
	}
	return merged, unattached, nil
}

// clusterCentroid returns the centroid of a cluster's POI locations.
func (d *Diagram) clusterCentroid(cl []int) geo.Point {
	pts := make([]geo.Point, len(cl))
	for k, i := range cl {
		pts[k] = d.POIs[i].Location
	}
	return geo.Centroid(pts)
}

// popWeightedDistribution computes Pr_u(s) of Equation (6): each major's
// share of the cluster's total popularity. Zero-popularity clusters fall
// back to uniform member counting so merging still has a signal.
func (d *Diagram) popWeightedDistribution(cl []int) []float64 {
	dist := make([]float64, poi.NumMajors)
	var total float64
	for _, i := range cl {
		dist[d.POIs[i].Major()] += d.Pop[i]
		total += d.Pop[i]
	}
	if total == 0 {
		for _, i := range cl {
			dist[d.POIs[i].Major()]++
		}
		total = float64(len(cl))
	}
	for k := range dist {
		dist[k] /= total
	}
	return dist
}

// cosine is the Cos(u_i, u_j) of Equations (7)–(8).
func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (sqrt(na) * sqrt(nb))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// finalize materializes the units, the POI→unit map and the member
// spatial index (built on the requested backend).
func (d *Diagram) finalize(clusters [][]int, kind index.Kind) {
	d.unitOf = make([]int, len(d.POIs))
	for i := range d.unitOf {
		d.unitOf[i] = -1
	}
	d.Units = make([]Unit, 0, len(clusters))
	for _, cl := range clusters {
		if len(cl) == 0 {
			continue
		}
		sort.Ints(cl)
		u := Unit{ID: len(d.Units), Members: cl, Center: d.clusterCentroid(cl)}
		for _, i := range cl {
			u.Semantics = u.Semantics.Union(d.POIs[i].Semantics())
			d.unitOf[i] = u.ID
		}
		d.Units = append(d.Units, u)
	}
	for i, uid := range d.unitOf {
		if uid >= 0 {
			d.members = append(d.members, i)
		}
	}
	pts := make([]geo.Point, len(d.members))
	for k, i := range d.members {
		pts[k] = d.POIs[i].Location
	}
	d.memberIdx = index.New(kind, pts, d.Params.R3Sigma)
}
