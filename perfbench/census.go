package main

import (
	"fmt"
	"time"

	"decomine"
	"decomine/internal/baseline"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/server"
)

// census-cold: one operation is a vertex-induced k-motif census
// (MotifCounts, the batch path) on a fresh System over a heap
// overlapping-community graph, so every operation pays its own sampling
// profile and planning.
type censusInst struct {
	c      *config
	n, k   int
	g      *decomine.Graph
	oracle map[pattern.Code]int64
}

// Graph shape: n vertices, each in 2 communities (cliques) of 6.
const censusMemberships, censusCliqueSize = 2, 6

func censusSize(c *config) (n, k int) {
	if c.tiny {
		return 24, 4
	}
	return 64, 5
}

func setupCensus(c *config) (instance, error) {
	n, k := censusSize(c)
	pattern.ConnectedPatterns(k) // the motif list is built once per process
	g := decomine.GenerateCommunity(n, censusMemberships, censusCliqueSize, c.seed)
	return &censusInst{c: c, n: n, k: k, g: g}, nil
}

func (ci *censusInst) internalGraph() *graph.Graph {
	return graph.Community(ci.n, censusMemberships, censusCliqueSize, ci.c.seed)
}

// prepare runs the pattern-oblivious census (ESU enumeration with a
// canonical code per embedding), which shares no planner or VM code.
func (ci *censusInst) prepare() error {
	ci.oracle = baseline.ObliviousMotifCensus(ci.internalGraph(), ci.k)
	return nil
}

func (ci *censusInst) check(got func(i int) (*pattern.Pattern, int64), n int) error {
	if want := len(pattern.ConnectedPatterns(ci.k)); n != want {
		return fmt.Errorf("census returned %d classes, want %d", n, want)
	}
	for i := 0; i < n; i++ {
		p, count := got(i)
		if want := ci.oracle[p.Canonical()]; count != want {
			return fmt.Errorf("vertex-induced %s: got %d, oracle %d", p, count, want)
		}
	}
	return nil
}

func (ci *censusInst) op() error {
	sys := decomine.NewSystem(ci.g, decomine.Options{Threads: ci.c.threads, Seed: ci.c.seed})
	defer sys.Close()
	mc, err := sys.MotifCounts(ci.k)
	if err != nil {
		return err
	}
	return ci.check(func(i int) (*pattern.Pattern, int64) { return mc[i].Pattern.Raw(), mc[i].Count }, len(mc))
}

func (ci *censusInst) run(d time.Duration, rec *recorder) *doorStats {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		start := time.Now()
		err := ci.op()
		rec.op(time.Since(start), err)
	}
	return nil
}

// replay re-runs each census through the layers, with the tracer off
// and on: one profile, then per motif its canonical code and
// vertex-induced rewrite, each distinct edge-induced need searched,
// lowered, priced and executed once. After each replayed census the
// same census goes through the server front door on a warm System
// twice: after an epoch bump (a miss) and again (a hit).
func (ci *censusInst) replay(d time.Duration, t *tracer, rec *recorder) (*doorStats, error) {
	heap, mapped, err := storageProbe(t, ci.c.workdir, ci.internalGraph)
	if err != nil {
		return nil, err
	}
	mapped.Close()

	sys := decomine.NewSystem(ci.g, decomine.Options{Threads: ci.c.threads, Seed: ci.c.seed})
	defer sys.Close()
	srv, err := server.New(server.Config{Systems: map[string]*decomine.System{"g": sys}, MaxConcurrent: ci.c.threads})
	if err != nil {
		return nil, err
	}
	send := handlerSender(srv.Handler())
	motifs := pattern.ConnectedPatterns(ci.k)
	batch := queryReq{Induced: true}
	for _, p := range motifs {
		batch.Patterns = append(batch.Patterns, p.String())
	}
	door := &doorStats{}
	if _, err := post(send, "bench", batch, &doorStats{}); err != nil {
		return nil, err
	}
	wait0, adm0 := tenantWait("bench")

	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		counts := make([]int64, len(motifs))
		err := t.pair(i, "census", func() error {
			r := newReplayer(t, heap, ci.c.threads, ci.c.seed)
			defer r.close()
			r.memo = map[pattern.Code]int64{}
			r.buildModel()
			for j, p := range motifs {
				r.canonical(p) // the batch keys each member by its canonical code
				var err error
				if counts[j], err = r.countVI(p); err != nil {
					return err
				}
			}
			return nil
		}, nil)
		if err == nil {
			err = ci.check(func(i int) (*pattern.Pattern, int64) { return motifs[i], counts[i] }, len(counts))
		}
		rec.op(0, err)

		if err := bumpEpoch(send, "bench"); err != nil {
			return nil, err
		}
		for rep := 0; rep < 2; rep++ {
			var resp *queryResp
			t.call("server.request", func() { resp, err = post(send, "bench", batch, door) })
			if err == nil {
				err = ci.check(func(i int) (*pattern.Pattern, int64) { return motifs[i], resp.Counts[i].Count }, len(resp.Counts))
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

func (ci *censusInst) close() {}
