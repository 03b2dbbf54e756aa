// Package sampling implements the profiling step of DecoMine's
// approximate-mining cost model (paper §6.2): sample a fixed number of
// edges from the input graph, then obtain approximate and relative counts
// of all small patterns on the sample with an ASAP-style neighbor
// sampling estimator. The counts live in a table keyed by canonical
// pattern code, queried by the compiler during cost estimation; missing
// (larger) patterns are profiled on demand and cached.
package sampling

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/vset"
)

// Profile is the pattern-count table for one input graph.
type Profile struct {
	mu     sync.Mutex
	sample *graph.Graph
	edges  [][2]uint32
	trials int
	rng    *rand.Rand
	counts map[pattern.Code]float64
	// SampleVertices/SampleEdges record the profiled subgraph size for
	// reporting.
	SampleVertices int
	SampleEdges    int64
}

// Options configures profiling.
type Options struct {
	// SampleEdges is the number of edges sampled from the input graph
	// (paper default is large, e.g. 32M; scaled here). 0 means 200k.
	SampleEdges int
	// Trials is the number of neighbor-sampling walks per pattern.
	// 0 means 30k.
	Trials int
	// MaxSize pre-profiles all connected patterns up to this vertex
	// count. 0 means 5 ("collecting approximate counts for patterns up
	// to 5 vertices is mostly enough").
	MaxSize int
	// Seed fixes the random streams.
	Seed int64
}

// BuildProfile samples the graph and pre-computes the count table.
func BuildProfile(g *graph.Graph, opts Options) *Profile {
	p, maxSize := newProfile(g, opts)
	for k := 2; k <= maxSize; k++ {
		for _, pat := range pattern.ConnectedPatterns(k) {
			p.counts[pat.Canonical()] = p.estimate(pat)
		}
	}
	return p
}

// newProfile samples the graph and seeds the estimator's random stream,
// leaving the count table empty. It returns the pre-profiling size.
func newProfile(g *graph.Graph, opts Options) (*Profile, int) {
	if opts.SampleEdges == 0 {
		opts.SampleEdges = 200_000
	}
	if opts.Trials == 0 {
		opts.Trials = 30_000
	}
	if opts.MaxSize == 0 {
		opts.MaxSize = 5
	}
	sample := g
	if g.NumEdges() > int64(opts.SampleEdges) {
		sample = g.EdgeSampledSubgraph(opts.SampleEdges, opts.Seed)
	}
	p := &Profile{
		sample:         sample,
		trials:         opts.Trials,
		rng:            rand.New(rand.NewSource(opts.Seed + 1)),
		counts:         map[pattern.Code]float64{},
		SampleVertices: sample.NumVertices(),
		SampleEdges:    sample.NumEdges(),
	}
	p.edges = make([][2]uint32, 0, sample.NumEdges())
	sample.Edges(func(u, v uint32) { p.edges = append(p.edges, [2]uint32{u, v}) })
	return p, opts.MaxSize
}

// Count returns the approximate relative tuple count of a connected
// pattern on the sampled graph, profiling on demand if the pattern was
// not pre-computed. The second result is false for patterns the profiler
// cannot estimate (disconnected or > MaxVertices).
func (p *Profile) Count(pat *pattern.Pattern) (float64, bool) {
	var code pattern.Code
	if pat.NumVertices() >= 2 && pat.Connected() {
		code = pat.Canonical()
	}
	return p.CountCode(pat, code)
}

// CountCode is Count for a caller that already holds pat's canonical
// code.
func (p *Profile) CountCode(pat *pattern.Pattern, code pattern.Code) (float64, bool) {
	if pat.NumVertices() < 2 {
		return float64(p.SampleVertices), true
	}
	if !pat.Connected() {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.counts[code]; ok {
		return c, true
	}
	c := p.estimate(pat)
	p.counts[code] = c
	return c, true
}

// CountByCode returns the cached count for a canonical code, if present.
func (p *Profile) CountByCode(code pattern.Code) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.counts[code]
	return c, ok
}

// estimate runs the neighbor-sampling estimator: root a random edge,
// extend one vertex at a time along a connected matching order, weight by
// the product of candidate-set sizes. The expectation of the weight
// equals the number of injective tuples matching the pattern.
//
// A level's candidates are the intersection of the bound pattern
// neighbors' adjacency rows ("raw"), minus earlier bound vertices. Rows
// have no self-loops, so only the bound vertices of non-adjacent earlier
// levels can appear in raw; bound vertices are pairwise distinct, so
// each appears at most once. The walk therefore draws the r-th
// surviving candidate straight out of raw by skipping the excluded
// positions, and the last level, whose draw is never used, only counts.
// The draws, candidate-set sizes and float operations are exactly those
// of filtering a fresh copy of raw at every level, so the profile — and
// every plan the cost model ranks with it — does not depend on these
// shortcuts.
func (p *Profile) estimate(pat *pattern.Pattern) float64 {
	levels, ok := walkLevels(pat)
	if !ok {
		return 0
	}
	g := p.sample
	edges := p.edges
	m := int64(len(edges))
	if m == 0 {
		return 0
	}
	n := len(levels) + 2
	bound := make([]uint32, n) // bound[i] is the vertex at order position i
	raws := make([]vset.Set, n)
	bufs := make([]vset.Set, n)
	var excl []int
	var total float64
	for trial := 0; trial < p.trials; trial++ {
		e := edges[p.rng.Intn(len(edges))]
		u, v := e[0], e[1]
		if p.rng.Intn(2) == 0 {
			u, v = v, u
		}
		weight := 2 * float64(m)
		bound[0], bound[1] = u, v
		ok := true
		for i := 2; i < n; i++ {
			lv := &levels[i-2]
			if i == n-1 {
				// Last level: count the survivors; the drawn vertex is
				// unused.
				size := lv.count(g, bound, raws, &bufs[i])
				if size == 0 {
					ok = false
					break
				}
				weight *= float64(size)
				p.rng.Intn(size)
				break
			}
			raw := lv.raw(g, bound, raws, &bufs[i])
			raws[i] = raw
			excl = excl[:0]
			for _, j := range lv.nonAdj {
				if k, found := slices.BinarySearch(raw, bound[j]); found {
					excl = append(excl, k)
				}
			}
			size := len(raw) - len(excl)
			if size == 0 {
				ok = false
				break
			}
			weight *= float64(size)
			bound[i] = raw[skipExcluded(p.rng.Intn(size), excl)]
		}
		if !ok {
			continue
		}
		// Every pattern edge to an earlier vertex was enforced by the
		// intersections, so the sample is exact.
		total += weight
	}
	return total / float64(p.trials)
}

// skipExcluded maps r, an index into raw with the positions in excl
// removed, back to its index in raw.
func skipExcluded(r int, excl []int) int {
	slices.Sort(excl)
	for _, k := range excl {
		if k > r {
			break
		}
		r++
	}
	return r
}

// walkLevel says how the estimator builds the raw candidate set of one
// order position from the third on.
type walkLevel struct {
	// base is an earlier level (order position ≥ 2) whose raw set is a
	// superset of this one's — its adjacency mask is a subset — or -1.
	base int
	// rows are the order positions whose adjacency rows are intersected
	// (into base's raw set when base ≥ 0).
	rows []int
	// nonAdj are the earlier order positions not adjacent to this level.
	nonAdj []int
}

// walkLevels plans the walk along pat's connected matching order:
// levels[i-2] describes order position i. ok is false for disconnected
// patterns.
func walkLevels(pat *pattern.Pattern) (levels []walkLevel, ok bool) {
	order := connectedOrder(pat)
	if order == nil {
		return nil, false
	}
	n := len(order)
	masks := make([]uint32, n)
	levels = make([]walkLevel, n-2)
	for i := 2; i < n; i++ {
		lv := &levels[i-2]
		for j := 0; j < i; j++ {
			if pat.HasEdge(order[i], order[j]) {
				masks[i] |= 1 << uint(j)
			} else {
				lv.nonAdj = append(lv.nonAdj, j)
			}
		}
		lv.base = -1
		best := 1
		for l := 2; l < i; l++ {
			if masks[l]&^masks[i] == 0 && bits.OnesCount32(masks[l]) > best {
				lv.base, best = l, bits.OnesCount32(masks[l])
			}
		}
		rest := masks[i]
		if lv.base >= 0 {
			rest &^= masks[lv.base]
		}
		for ; rest != 0; rest &= rest - 1 {
			lv.rows = append(lv.rows, bits.TrailingZeros32(rest))
		}
	}
	return levels, true
}

// raw returns the level's raw candidate set: a neighbor row or base's
// set itself when there is nothing to intersect, otherwise an
// intersection written into *buf.
func (lv *walkLevel) raw(g *graph.Graph, bound []uint32, raws []vset.Set, buf *vset.Set) vset.Set {
	rows := lv.rows
	var acc vset.Set
	if lv.base >= 0 {
		acc = raws[lv.base]
	} else {
		acc, rows = g.Neighbors(bound[rows[0]]), rows[1:]
	}
	for _, j := range rows {
		*buf = vset.Intersect((*buf)[:0], acc, g.Neighbors(bound[j]))
		acc = *buf
	}
	return acc
}

// count returns the number of raw candidates that are not earlier bound
// vertices. The last intersection, if there is one, is only counted.
func (lv *walkLevel) count(g *graph.Graph, bound []uint32, raws []vset.Set, buf *vset.Set) int {
	head, last := *lv, -1
	if k := len(lv.rows); k > 1 || (k == 1 && lv.base >= 0) {
		head.rows, last = lv.rows[:k-1], lv.rows[k-1]
	}
	set := head.raw(g, bound, raws, buf)
	size := len(set)
	var row vset.Set
	if last >= 0 {
		row = g.Neighbors(bound[last])
		size = int(vset.IntersectCount(set, row))
	}
	for _, j := range lv.nonAdj {
		if vset.Contains(set, bound[j]) && (last < 0 || vset.Contains(row, bound[j])) {
			size--
		}
	}
	return size
}

// connectedOrder returns a matching order in which every vertex after the
// first is adjacent to an earlier one, or nil if the pattern is
// disconnected.
func connectedOrder(pat *pattern.Pattern) []int {
	n := pat.NumVertices()
	if n < 2 || !pat.Connected() {
		return nil
	}
	// Start from the highest-degree vertex and grow greedily by degree.
	start := 0
	for v := 1; v < n; v++ {
		if pat.Degree(v) > pat.Degree(start) {
			start = v
		}
	}
	order := []int{start}
	used := map[int]bool{start: true}
	for len(order) < n {
		best := -1
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			adj := false
			for _, u := range order {
				if pat.HasEdge(u, v) {
					adj = true
					break
				}
			}
			if !adj {
				continue
			}
			if best < 0 || pat.Degree(v) > pat.Degree(best) {
				best = v
			}
		}
		if best < 0 {
			return nil
		}
		order = append(order, best)
		used[best] = true
	}
	return order
}
