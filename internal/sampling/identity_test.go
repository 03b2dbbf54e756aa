package sampling

import (
	"math"
	"math/rand"
	"testing"

	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/vset"
)

// estimateReference is the straightforward form of the estimator: every
// level copies or intersects its candidate rows into a fresh set, drops
// the earlier bound vertices by scanning, and draws from what is left.
// Profile.estimate must reproduce it bit for bit, random draws included.
func estimateReference(p *Profile, pat *pattern.Pattern) float64 {
	order := connectedOrder(pat)
	if order == nil {
		return 0
	}
	g := p.sample
	edges := p.edges
	m := int64(len(edges))
	if m == 0 {
		return 0
	}
	n := pat.NumVertices()
	bound := make([]uint32, n)
	var cand []uint32
	var scratch []uint32
	var total float64
	for trial := 0; trial < p.trials; trial++ {
		e := edges[p.rng.Intn(len(edges))]
		u, v := e[0], e[1]
		if p.rng.Intn(2) == 0 {
			u, v = v, u
		}
		weight := 2 * float64(m)
		bound[order[0]], bound[order[1]] = u, v
		ok := true
		for i := 2; i < n && ok; i++ {
			pv := order[i]
			cand = cand[:0]
			first := true
			for j := 0; j < i; j++ {
				if !pat.HasEdge(pv, order[j]) {
					continue
				}
				nb := g.Neighbors(bound[order[j]])
				if first {
					cand = append(cand[:0], nb...)
					first = false
				} else {
					scratch = vset.Intersect(scratch, cand, nb)
					cand, scratch = scratch, cand
				}
			}
			k := 0
			for _, x := range cand {
				dup := false
				for j := 0; j < i; j++ {
					if bound[order[j]] == x {
						dup = true
						break
					}
				}
				if !dup {
					cand[k] = x
					k++
				}
			}
			cand = cand[:k]
			if len(cand) == 0 {
				ok = false
				break
			}
			weight *= float64(len(cand))
			bound[pv] = cand[p.rng.Intn(len(cand))]
		}
		if !ok {
			continue
		}
		total += weight
	}
	return total / float64(p.trials)
}

type identityGraph struct {
	name string
	g    *graph.Graph
	opts Options
}

func identityGraphs() []identityGraph {
	return []identityGraph{
		{"community", graph.Community(96, 2, 8, 303), Options{Trials: 2_000, Seed: 11}},
		{"rmat", graph.RMAT(8, 8, 42), Options{Trials: 2_000, Seed: 12}},
		{"gnp", graph.GNP(80, 0.1, 7), Options{Trials: 2_000, Seed: 13}},
		{"labeled", graph.RMAT(7, 6, 5).WithRandomLabels(4, 9), Options{Trials: 2_000, Seed: 14}},
		// More edges than SampleEdges: the profile runs on an edge sample.
		{"sampled", graph.SmallWorld(400, 4, 0.1, 21), Options{SampleEdges: 600, Trials: 2_000, Seed: 15}},
	}
}

func allConnected(lo, hi int) []*pattern.Pattern {
	var out []*pattern.Pattern
	for k := lo; k <= hi; k++ {
		out = append(out, pattern.ConnectedPatterns(k)...)
	}
	return out
}

// TestEstimateMatchesReference runs every connected 2–6-vertex pattern
// through both estimators from the same random state: the estimates must
// be bit-identical and both must leave the stream at the same position.
func TestEstimateMatchesReference(t *testing.T) {
	pats := allConnected(2, 6)
	for _, ig := range identityGraphs() {
		p, _ := newProfile(ig.g, ig.opts)
		if ig.name == "sampled" && p.sample == ig.g {
			t.Fatalf("%s: graph was not edge-sampled", ig.name)
		}
		for i, pat := range pats {
			seed := int64(1000 + i)
			p.rng = rand.New(rand.NewSource(seed))
			got := p.estimate(pat)
			gotNext := p.rng.Int63()
			p.rng = rand.New(rand.NewSource(seed))
			want := estimateReference(p, pat)
			wantNext := p.rng.Int63()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s: estimate %v, reference %v", ig.name, pat, got, want)
			}
			if gotNext != wantNext {
				t.Fatalf("%s %s: random stream diverged", ig.name, pat)
			}
		}
	}
}

// TestProfileMatchesReference checks the whole profile: the pre-profiled
// table and the on-demand Count path, which continue one random stream
// across patterns, must equal the reference estimator's run over the
// same patterns in the same order.
func TestProfileMatchesReference(t *testing.T) {
	for _, ig := range identityGraphs() {
		opts := ig.opts
		opts.MaxSize = 4
		got := BuildProfile(ig.g, opts)
		ref, maxSize := newProfile(ig.g, opts)
		for _, pat := range allConnected(2, maxSize) {
			ref.counts[pat.Canonical()] = estimateReference(ref, pat)
		}
		if len(got.counts) != len(ref.counts) {
			t.Fatalf("%s: %d profiled patterns, reference %d", ig.name, len(got.counts), len(ref.counts))
		}
		for code, want := range ref.counts {
			if math.Float64bits(got.counts[code]) != math.Float64bits(want) {
				t.Fatalf("%s %s: profiled %v, reference %v", ig.name, code, got.counts[code], want)
			}
		}
		for _, pat := range allConnected(maxSize+1, 6) {
			c, ok := got.Count(pat)
			want := estimateReference(ref, pat)
			if !ok || math.Float64bits(c) != math.Float64bits(want) {
				t.Fatalf("%s %s: on-demand %v, reference %v", ig.name, pat, c, want)
			}
		}
		if got.rng.Int63() != ref.rng.Int63() {
			t.Fatalf("%s: random stream diverged", ig.name)
		}
	}
}
