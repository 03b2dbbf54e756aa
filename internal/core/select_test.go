package core

import (
	"math"
	"sort"
	"testing"

	"decomine/internal/cost"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/sampling"
)

// TestStreamedSelectionMatchesStableSort checks the streaming plan
// selection against ranking the full candidate list: the winner must be
// the first entry of the stably sorted list — same plan, same
// description, same cost bits — under every cost model, with and
// without externalized shrinkage quotients.
func TestStreamedSelectionMatchesStableSort(t *testing.T) {
	g := graph.Community(64, 2, 6, 5)
	st := cost.StatsOf(g)
	prof := sampling.BuildProfile(g, sampling.Options{Trials: 2_000, Seed: 3})
	models := []cost.Model{cost.NewAutoMine(st), cost.NewLocality(st, 0.25), cost.NewApproxMining(st, prof)}

	var pats []*pattern.Pattern
	skip := map[pattern.Code]bool{}
	for k := 2; k <= 5; k++ {
		for _, q := range pattern.ConnectedPatterns(k) {
			pats = append(pats, q)
			skip[q.Canonical()] = true
		}
	}
	pats = append(pats, pattern.Cycle(6), pattern.Chain(6), pattern.Star(6),
		pattern.MustParse("0-1,1-2,2-0,2-3,3-4,4-5,5-3"), pattern.MustParse("0-1,0-2,0-3,1-4,2-4,3-5,4-5"))

	for _, m := range models {
		for _, skipCodes := range []map[pattern.Code]bool{nil, skip} {
			for _, p := range pats {
				var all []Candidate
				best, n, err := Search(p, SearchOptions{
					Model: m, Mode: ModeCount, SkipShrinkCodes: skipCodes,
					Visit: func(c Candidate) { all = append(all, c) },
				})
				if err != nil {
					t.Fatalf("%s %s: %v", m.Name(), p, err)
				}
				if n != len(all) {
					t.Fatalf("%s %s: %d candidates, %d visited", m.Name(), p, n, len(all))
				}
				sort.SliceStable(all, func(i, j int) bool { return all[i].Cost < all[j].Cost })
				want := all[0]
				if best.Plan != want.Plan || best.Plan.Desc != want.Plan.Desc ||
					math.Float64bits(best.Cost) != math.Float64bits(want.Cost) {
					t.Fatalf("%s %s (skip=%v): streamed %s (%v), sorted %s (%v)",
						m.Name(), p, skipCodes != nil, best.Plan.Desc, best.Cost, want.Plan.Desc, want.Cost)
				}
			}
		}
	}
}
