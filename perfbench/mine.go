package main

import (
	"fmt"
	"math/rand"
	"time"

	"decomine"
	"decomine/internal/baseline"
	"decomine/internal/decomp"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/server"
)

// mine-warm: operations are library CountPattern calls cycling through
// a seeded ordering of edge-induced 4- and 5-vertex patterns on a heap
// skewed R-MAT graph with a hub bitmap index; plans are warmed in
// set-up, so operations are execution only.
type mineInst struct {
	c    *config
	g    *decomine.Graph
	sys  *decomine.System
	pats []*decomine.Pattern
	want []int64
}

// minePatterns is the catalog: every connected 4- and 5-vertex pattern
// but the 5-cycle, whose single op (about 0.9 s at scale 10) would take
// half of a catalog pass. With 26 patterns the latency percentiles fall
// among patterns of similar cost, so they move little with the seed.
func minePatterns() []*pattern.Pattern {
	var out []*pattern.Pattern
	cycle5 := pattern.Cycle(5).Canonical()
	for k := 4; k <= 5; k++ {
		for _, p := range pattern.ConnectedPatterns(k) {
			if p.Canonical() != cycle5 {
				out = append(out, p)
			}
		}
	}
	return out
}

const mineEdgeFactor = 8

func mineScale(c *config) (scale, hubMinDegree int) {
	if c.tiny {
		return 7, 16
	}
	return 10, 64
}

func setupMine(c *config) (instance, error) {
	scale, hub := mineScale(c)
	g := decomine.GenerateRMAT(scale, mineEdgeFactor, c.seed).BuildHubIndex(hub)
	sys := decomine.NewSystem(g, decomine.Options{Threads: c.threads, Seed: c.seed})
	mi := &mineInst{c: c, g: g, sys: sys}
	catalog := minePatterns()
	for _, i := range rand.New(rand.NewSource(c.seed)).Perm(len(catalog)) {
		p := decomine.RawPattern(catalog[i].Clone())
		if _, err := sys.EstimateCost(p, decomine.QueryOpts{}); err != nil {
			sys.Close()
			return nil, fmt.Errorf("plan %s: %w", p, err)
		}
		mi.pats = append(mi.pats, p)
	}
	return mi, nil
}

func (mi *mineInst) internalGraph() *graph.Graph {
	scale, hub := mineScale(mi.c)
	g := graph.RMAT(scale, mineEdgeFactor, mi.c.seed)
	g.BuildHubIndex(hub)
	return g
}

// prepare computes the expected counts. Where a counter exists that
// shares no planner or VM code, it is used: the six 4-vertex patterns
// from the closed-form native counter, the 5-star and the 5-clique from
// the counters below. The other 5-vertex patterns come from a
// differently configured System (direct plans only, no hub index, no
// auxiliary graphs, one thread), which shares no decomposition,
// shrinkage, hub-kernel or scheduler code with the System under test,
// but does share lowering, the VM and the set kernels: a change to those
// that breaks both Systems alike goes unseen on these patterns. It then
// runs each pattern once on the System under test, so lowering is warm
// too.
func (mi *mineInst) prepare() error {
	g := mi.internalGraph()
	native := baseline.CountNative4Motifs(g)
	closed := map[pattern.Code]int64{
		pattern.Chain(4).Canonical():                         native.Path3,
		pattern.Star(4).Canonical():                          native.Star3,
		pattern.Cycle(4).Canonical():                         native.Cycle4,
		pattern.TailedTriangle().Canonical():                 native.TailedTri,
		pattern.MustParse("0-1,0-2,1-2,1-3,2-3").Canonical(): native.Diamond,
		pattern.Clique(4).Canonical():                        native.Clique4,
		pattern.Star(5).Canonical():                          starCount(g, 4),
		pattern.Clique(5).Canonical():                        cliqueCount(g, 5),
	}
	ref := decomine.NewSystem(mi.g, decomine.Options{Threads: 1, Seed: mi.c.seed,
		DisableDecomposition: true, DisableHubIndex: true, DisableAuxGraphs: true})
	defer ref.Close()
	mi.want = make([]int64, len(mi.pats))
	for i, p := range mi.pats {
		want, ok := closed[p.Raw().Canonical()]
		if !ok {
			var err error
			if want, err = ref.GetPatternCount(p); err != nil {
				return err
			}
		}
		mi.want[i] = want
		if err := mi.op(i); err != nil {
			return err
		}
	}
	return nil
}

// starCount counts stars with the given number of leaves:
// Σ_v C(deg v, leaves).
func starCount(g *graph.Graph, leaves int) int64 {
	var total int64
	for v := 0; v < g.NumVertices(); v++ {
		c, d := int64(1), int64(g.Degree(uint32(v)))
		for i := int64(0); i < int64(leaves); i++ {
			c = c * (d - i) / (i + 1)
		}
		total += c
	}
	return total
}

// cliqueCount counts k-cliques by listing them once each: edges point
// from the lower to the higher (degree, ID) end, and a clique grows by
// intersecting the out-neighbors of its members.
func cliqueCount(g *graph.Graph, k int) int64 {
	n := g.NumVertices()
	below := func(u, v uint32) bool {
		du, dv := g.Degree(u), g.Degree(v)
		return du < dv || du == dv && u < v
	}
	out := make([][]uint32, n)
	for u := uint32(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if below(u, v) {
				out[u] = append(out[u], v)
			}
		}
	}
	var grow func(cand []uint32, need int) int64
	grow = func(cand []uint32, need int) int64 {
		if need == 1 {
			return int64(len(cand))
		}
		var total int64
		for _, v := range cand {
			var next []uint32
			for i, j := 0, 0; i < len(cand) && j < len(out[v]); {
				switch {
				case cand[i] < out[v][j]:
					i++
				case cand[i] > out[v][j]:
					j++
				default:
					next = append(next, cand[i])
					i, j = i+1, j+1
				}
			}
			total += grow(next, need-1)
		}
		return total
	}
	var total int64
	for u := range out {
		total += grow(out[u], k-1)
	}
	return total
}

func (mi *mineInst) op(i int) error {
	r, err := mi.sys.CountPattern(mi.pats[i])
	if err != nil {
		return err
	}
	return mi.check(i, r.Count)
}

func (mi *mineInst) check(i int, got int64) error {
	if got != mi.want[i] {
		return fmt.Errorf("edge-induced %s: got %d, want %d", mi.pats[i], got, mi.want[i])
	}
	return nil
}

func (mi *mineInst) run(d time.Duration, rec *recorder) *doorStats {
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		start := time.Now()
		err := mi.op(i % len(mi.pats))
		rec.op(time.Since(start), err)
	}
	return nil
}

// replay builds the profile and plans once, as set-up does (and, for
// the rewrite layer, each pattern's vertex-induced recipe), then replays
// each operation, with the tracer off and on, as a canonical-code lookup
// and an engine run. Each
// operation then goes through the server front door over the System
// under test twice: after an epoch bump (a miss) and again (a hit).
func (mi *mineInst) replay(d time.Duration, t *tracer, rec *recorder) (*doorStats, error) {
	heap, mapped, err := storageProbe(t, mi.c.workdir, mi.internalGraph)
	if err != nil {
		return nil, err
	}
	mapped.Close()
	r := newReplayer(t, heap, mi.c.threads, mi.c.seed)
	defer r.close()
	r.buildModel()
	plans := make([]*replayPlan, len(mi.pats))
	for i, p := range mi.pats {
		if plans[i], err = r.plan(p.Raw(), r.canonical(p.Raw()), "", nil); err != nil {
			return nil, err
		}
		var rw *decomp.Rewrite
		t.call("decomp.rewrite", func() { rw, _, err = decomp.RewriteQuery(p.Raw(), true) })
		if err != nil {
			return nil, err
		}
		t.count("decomp.rewrites", 1)
		t.count("decomp.rewrite_needs", float64(len(rw.Needs)))
	}

	srv, err := server.New(server.Config{Systems: map[string]*decomine.System{"g": mi.sys}, MaxConcurrent: mi.c.threads})
	if err != nil {
		return nil, err
	}
	send := handlerSender(srv.Handler())
	door := &doorStats{}
	wait0, adm0 := tenantWait("bench")
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(mi.pats)
		p := mi.pats[k].Raw()
		var got int64
		err := t.pair(i, "count", func() error {
			r.canonical(p) // the plan-cache key
			var err error
			got, err = r.run(p, plans[k])
			return err
		}, nil)
		if err == nil {
			err = mi.check(k, got)
		}
		rec.op(0, err)

		if err := bumpEpoch(send, "bench"); err != nil {
			return nil, err
		}
		for rep := 0; rep < 2; rep++ {
			var resp *queryResp
			t.call("server.request", func() { resp, err = post(send, "bench", queryReq{Pattern: p.String()}, door) })
			if err == nil {
				err = mi.check(k, resp.Count)
			}
			if err != nil {
				rec.op(0, fmt.Errorf("front door: %w", err))
			}
		}
	}
	wait1, adm1 := tenantWait("bench")
	door.queueWaitNS, door.admitted = wait1-wait0, adm1-adm0
	return door, nil
}

func (mi *mineInst) close() { mi.sys.Close() }
