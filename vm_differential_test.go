package decomine

// Differential tests for the bytecode VM: every pattern in the seed
// suite must count identically on the VM (through the public API, with
// the work-stealing driver) and on engine.RunReference — the AST
// interpreter that shares no code with lowering, the VM dispatch loop or
// the driver — running the same compiled plan, over both G(n,p) and R-MAT graphs,
// including labeled and constrained variants and cancellation mid-run.

import (
	"math/rand"
	"testing"
	"time"

	"decomine/internal/core"
	"decomine/internal/engine"
	"decomine/internal/pattern"
)

// referenceCount counts p under constraints cons (nil for none) by
// running the plan sys compiled for that query — served from sys's plan
// cache — through engine.RunReference.
func referenceCount(t testing.TB, sys *System, p *Pattern, cons []LabelConstraint) int64 {
	t.Helper()
	e, _, err := sys.planFor(p, QueryOpts{Constraints: cons})
	if err != nil {
		t.Fatalf("%s: plan: %v", p, err)
	}
	return referencePlanCount(t, sys, e.plan)
}

// referencePlanCount runs plan on sys's graph through engine.RunReference.
func referencePlanCount(t testing.TB, sys *System, plan *core.Plan) int64 {
	t.Helper()
	globals, err := engine.RunReference(sys.graph.g, plan.Prog, nil, nil)
	if err != nil {
		t.Fatalf("%s: reference run: %v", plan.Desc, err)
	}
	count, err := plan.ExtractCount(globals, nil)
	if err != nil {
		t.Fatalf("%s: reference count: %v", plan.Desc, err)
	}
	return count
}

func differentialSystem(g *Graph, threads int) *System {
	return NewSystem(g, Options{Threads: threads, CostModel: CostLocality})
}

func TestVMDifferentialMotifSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	cases := []struct {
		name string
		g    *Graph
		maxK int
	}{
		{"gnp", GenerateGNP(70, 0.10, 1234), 5},
		{"rmat", GenerateRMAT(8, 6, 5678), 4},
	}
	for _, gc := range cases {
		sys := differentialSystem(gc.g, 3)
		for k := 3; k <= gc.maxK; k++ {
			for i, p := range pattern.ConnectedPatterns(k) {
				pp := &Pattern{p}
				got, err := sys.CountPattern(pp)
				if err != nil {
					t.Fatalf("%s k=%d #%d vm: %v", gc.name, k, i, err)
				}
				if want := referenceCount(t, sys, pp, nil); got.Count != want {
					t.Errorf("%s k=%d pattern #%d (%s): vm %d, reference %d",
						gc.name, k, i, p, got.Count, want)
				}
				if got.Stats.Exec.Instructions == 0 {
					t.Errorf("%s k=%d pattern #%d: VM reported no executed instructions", gc.name, k, i)
				}
			}
		}
		sys.Close()
	}
}

// sixVertexPatterns returns the 6-vertex motifs used by the suite: the
// path, the cycle, and a triangle with a 3-vertex tail.
func sixVertexPatterns() []*pattern.Pattern {
	path := pattern.New(6)
	for v := 0; v < 5; v++ {
		path.AddEdge(v, v+1)
	}
	cycle := pattern.New(6)
	for v := 0; v < 6; v++ {
		cycle.AddEdge(v, (v+1)%6)
	}
	tadpole := pattern.New(6)
	tadpole.AddEdge(0, 1)
	tadpole.AddEdge(1, 2)
	tadpole.AddEdge(2, 0)
	tadpole.AddEdge(2, 3)
	tadpole.AddEdge(3, 4)
	tadpole.AddEdge(4, 5)
	return []*pattern.Pattern{path, cycle, tadpole}
}

func TestVMDifferentialSixVertexMotifs(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	g := GenerateGNP(55, 0.09, 97531)
	sys := differentialSystem(g, 2)
	defer sys.Close()
	for i, p := range sixVertexPatterns() {
		pp := &Pattern{p}
		got, err := sys.GetPatternCount(pp)
		if err != nil {
			t.Fatalf("6-vertex #%d vm: %v", i, err)
		}
		if want := referenceCount(t, sys, pp, nil); got != want {
			t.Errorf("6-vertex pattern #%d (%s): vm %d, reference %d", i, p, got, want)
		}
	}
}

func TestVMDifferentialLabeledAndConstrained(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	r := rand.New(rand.NewSource(8642))
	g := GenerateGNP(50, 0.12, 13579).WithRandomLabels(3, 24680)
	sys := differentialSystem(g, 2)
	defer sys.Close()

	// Labeled patterns: random subset of vertices pinned to labels.
	for trial := 0; trial < 6; trial++ {
		p := randomConnectedPattern(r, 3+r.Intn(3))
		for v := 0; v < p.NumVertices(); v++ {
			if r.Intn(2) == 0 {
				p.SetLabel(v, uint32(r.Intn(3)))
			}
		}
		pp := &Pattern{p}
		got, err := sys.GetPatternCount(pp)
		if err != nil {
			t.Fatalf("labeled trial %d vm: %v", trial, err)
		}
		if want := referenceCount(t, sys, pp, nil); got != want {
			t.Errorf("labeled trial %d (%s): vm %d, reference %d", trial, p, got, want)
		}
	}

	// Group label constraints (hash-table plans).
	p, err := PatternByName("fig6")
	if err != nil {
		t.Fatal(err)
	}
	cons := []LabelConstraint{
		{Kind: AllDifferentLabels, Vertices: []int{0, 1, 2}},
		{Kind: AllSameLabel, Vertices: []int{1, 3, 4}},
	}
	got, err := sys.CountWithConstraints(p, cons)
	if err != nil {
		t.Fatalf("constrained vm: %v", err)
	}
	if want := referenceCount(t, sys, p, cons); got != want {
		t.Errorf("constrained fig6: vm %d, reference %d", got, want)
	}
}

func TestVMDifferentialCancellationMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	// A run far too large for a 1ms budget (the full run takes seconds
	// single-threaded) but with short cancellation-check chunks: the VM
	// must observe the cancellation mid-run and report a timeout rather
	// than hanging or returning a bogus full count.
	g := GenerateRMAT(10, 8, 2468)
	cycle5 := pattern.New(5)
	for v := 0; v < 5; v++ {
		cycle5.AddEdge(v, (v+1)%5)
	}
	sys := differentialSystem(g, 1)
	_, timedOut, err := sys.GetPatternCountWithin(&Pattern{cycle5}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Errorf("1ms budget on 5-cycle over %s did not time out", g)
	}
}
