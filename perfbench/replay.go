package main

import (
	"fmt"
	"os"
	"path/filepath"

	"decomine/internal/core"
	"decomine/internal/cost"
	"decomine/internal/decomp"
	"decomine/internal/engine"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/sampling"
)

// replayer answers counting queries by calling each layer's entry point
// directly, in the order a System does — profile, canonical code,
// rewrite, search, lowering, cost estimate, execution — and times every
// call through the tracer. Its answers are checked like the System's.
type replayer struct {
	t       *tracer
	g       *graph.Graph
	threads int
	seed    int64
	pool    *engine.Pool
	model   cost.Model
	plans   map[string]*replayPlan
	// memo, when non-nil, keeps edge-induced counts by canonical code so
	// an operation executes each distinct subquery once (the batch
	// layer's sharing, or the server's result cache between epoch bumps).
	memo map[pattern.Code]int64
	// admit, when non-nil, is called before each execution (the
	// server's admission pricing).
	admit func(p *pattern.Pattern)
}

type replayPlan struct {
	plan *core.Plan
	prep *engine.Prepared
}

func newReplayer(t *tracer, g *graph.Graph, threads int, seed int64) *replayer {
	r := &replayer{t: t, g: g, threads: threads, seed: seed, plans: map[string]*replayPlan{}}
	if threads > 1 {
		r.pool = engine.NewPool(threads)
	}
	return r
}

func (r *replayer) close() {
	if r.pool != nil {
		r.pool.Close()
	}
}

// buildModel builds the sampling profile with the System's default
// options and seed, and the approximate-mining cost model over it.
func (r *replayer) buildModel() {
	var prof *sampling.Profile
	r.t.call("sampling.profile", func() {
		prof = sampling.BuildProfile(r.g, sampling.Options{Seed: r.seed + 1000})
	})
	r.model = cost.NewApproxMining(cost.StatsOf(r.g), prof)
}

func (r *replayer) canonical(p *pattern.Pattern) pattern.Code {
	var c pattern.Code
	r.t.call("pattern.canonical", func() { c = p.Canonical() })
	if r.t.inOp {
		r.t.count("pattern.canonical_calls", 1) // a per-op figure
	}
	return c
}

// plan returns the cached plan for (code, flavor), searching, lowering
// and pricing it on first use.
func (r *replayer) plan(p *pattern.Pattern, code pattern.Code, flavor string, cons []core.LabelConstraint) (*replayPlan, error) {
	key := string(code) + "|" + flavor
	if rp, ok := r.plans[key]; ok {
		return rp, nil
	}
	var stats core.SearchStats
	var best *core.Candidate
	var err error
	id := r.t.call("core.search", func() {
		best, _, err = core.Search(p, core.SearchOptions{Model: r.model, Mode: core.ModeCount, Constraints: cons, Stats: &stats})
	})
	if err != nil {
		return nil, fmt.Errorf("search %s: %w", p, err)
	}
	r.t.child(id, "core.enumerate", 0, stats.EnumerateTime)
	r.t.child(id, "cost.rank", stats.EnumerateTime, stats.RankTime)
	r.t.count("core.searches", 1)
	r.t.count("core.candidates", float64(stats.Candidates))
	rp := &replayPlan{plan: best.Plan}
	r.t.call("ast.lower", func() { rp.prep = engine.Prepare(r.g, best.Plan.Lowered()) })
	r.t.call("cost.estimate", func() { r.model.Cost(best.Plan.Prog) })
	r.plans[key] = rp
	return rp, nil
}

func (r *replayer) run(p *pattern.Pattern, rp *replayPlan) (int64, error) {
	if r.admit != nil {
		r.admit(p)
	}
	var res *engine.Result
	var err error
	r.t.call("engine.run", func() {
		res, err = engine.Run(r.g, rp.plan.Prog, engine.Options{
			Threads: r.threads, Code: rp.plan.Lowered(), Pool: r.pool, Prepared: rp.prep})
	})
	if err != nil {
		return 0, err
	}
	r.t.count("engine.instructions", float64(res.InstructionsExecuted()))
	return rp.plan.ExtractCount(res.Globals, nil)
}

// countEI is an edge-induced count of a connected pattern whose
// canonical code the caller computed.
func (r *replayer) countEI(p *pattern.Pattern, code pattern.Code) (int64, error) {
	if c, ok := r.memo[code]; ok {
		return c, nil
	}
	rp, err := r.plan(p, code, "", nil)
	if err != nil {
		return 0, err
	}
	c, err := r.run(p, rp)
	if err != nil {
		return 0, err
	}
	if r.memo != nil {
		r.memo[code] = c
	}
	return c, nil
}

// countVI is a vertex-induced count through the GEO rewrite: the
// edge-induced counts of the pattern's supergraph classes, composed.
func (r *replayer) countVI(p *pattern.Pattern) (int64, error) {
	var rw *decomp.Rewrite
	var ok bool
	var err error
	r.t.call("decomp.rewrite", func() { rw, ok, err = decomp.RewriteQuery(p, true) })
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("no vertex-induced rewrite for %s", p)
	}
	r.t.count("decomp.rewrites", 1)
	r.t.count("decomp.rewrite_needs", float64(len(rw.Needs)))
	counts := map[pattern.Code]int64{}
	for _, q := range rw.Needs {
		code := r.canonical(q)
		c, err := r.countEI(q, code)
		if err != nil {
			return 0, err
		}
		counts[code] = c
	}
	return rw.Eval(counts)
}

// allDifferentPlan is the plan counting embeddings of p whose vertices
// all carry different labels.
func (r *replayer) allDifferentPlan(p *pattern.Pattern, code pattern.Code) (*replayPlan, error) {
	verts := make([]int, p.NumVertices())
	for i := range verts {
		verts[i] = i
	}
	cons := []core.LabelConstraint{{Kind: core.AllDifferent, Verts: verts}}
	return r.plan(p, code, "all-different", cons)
}

func (r *replayer) countAllDifferent(p *pattern.Pattern, code pattern.Code) (int64, error) {
	rp, err := r.allDifferentPlan(p, code)
	if err != nil {
		return 0, err
	}
	return r.run(p, rp)
}

// storageProbe times the storage layer on a workload's graph, three
// times: build it on the heap, write it as a slab file, open that file
// mapped. It returns the last heap graph and the last mapped graph,
// which the caller closes.
func storageProbe(t *tracer, dir string, build func() *graph.Graph) (heap, mapped *graph.Graph, err error) {
	path := filepath.Join(dir, "probe.slab")
	defer os.Remove(path)
	for i := 0; i < 3; i++ {
		if mapped != nil {
			mapped.Close()
		}
		t.call("graph.build", func() { heap = build() })
		t.call("graph.slab_write", func() { err = heap.WriteSlabFile(path) })
		if err != nil {
			return nil, nil, err
		}
		t.call("graph.open_mapped", func() { mapped, err = graph.OpenMapped(path) })
		if err != nil {
			return nil, nil, err
		}
	}
	return heap, mapped, nil
}
