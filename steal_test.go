package decomine

// Differential and determinism tests for the work-stealing scheduler:
// the VM with stealing must agree with engine.RunReference on the same
// compiled plan for plain, labeled and group-constrained counts, and
// with an independent oracle for vertex-induced counts (see
// vertexInducedOracle), over both uniform G(n,p) and skewed R-MAT
// graphs; its merged OpCounts must not depend on the thread count or
// the steal schedule.

import (
	"testing"

	"decomine/internal/baseline"
	"decomine/internal/core"
	"decomine/internal/pattern"
)

func TestStealDifferentialAcrossGraphShapes(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"gnp", GenerateGNP(120, 0.07, 501).WithRandomLabels(3, 502)},
		{"rmat", GenerateRMAT(8, 7, 503).WithRandomLabels(3, 504)},
	}
	names := []string{"clique-3", "cycle-4", "clique-4", "house"}
	for _, gc := range graphs {
		vm := differentialSystem(gc.g, 4)
		censuses := map[int]map[pattern.Code]int64{}
		for _, name := range names {
			p, err := PatternByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// Plain edge-induced.
			got, err := vm.GetPatternCount(p)
			if err != nil {
				t.Fatalf("%s %s vm: %v", gc.name, name, err)
			}
			if want := referenceCount(t, vm, p, nil); got != want {
				t.Errorf("%s %s: steal VM %d != reference %d", gc.name, name, got, want)
			}
			// Vertex-induced.
			got, err = vm.GetPatternCountVertexInduced(p)
			if err != nil {
				t.Fatalf("%s %s vm induced: %v", gc.name, name, err)
			}
			if want := vertexInducedOracle(t, vm, p, censuses); got != want {
				t.Errorf("%s %s induced: steal VM %d != oracle %d", gc.name, name, got, want)
			}
			// Group-constrained (all pattern vertices share one label).
			cons := []LabelConstraint{{Kind: AllSameLabel, Vertices: allVerts(p)}}
			got, err = vm.CountWithConstraints(p, cons)
			if err != nil {
				t.Fatalf("%s %s vm constrained: %v", gc.name, name, err)
			}
			if want := referenceCount(t, vm, p, cons); got != want {
				t.Errorf("%s %s constrained: steal VM %d != reference %d", gc.name, name, got, want)
			}
		}
		vm.Close()
	}
}

// vertexInducedOracle returns p's vertex-induced count on sys's graph.
// Patterns of up to 4 vertices read it off internal/baseline's
// pattern-oblivious census (memoized per size in censuses). Larger ones
// run sys's direct vertex-induced plan through engine.RunReference
// instead: the 5-vertex census of a skewed R-MAT takes minutes.
func vertexInducedOracle(t *testing.T, sys *System, p *Pattern, censuses map[int]map[pattern.Code]int64) int64 {
	t.Helper()
	k := p.NumVertices()
	if k > 4 {
		best, _, err := core.Search(p.p, sys.searchOptions(core.ModeCount, true))
		if err != nil {
			t.Fatalf("%s: vertex-induced plan: %v", p, err)
		}
		return referencePlanCount(t, sys, best.Plan)
	}
	if censuses[k] == nil {
		censuses[k] = baseline.ObliviousMotifCensus(sys.graph.g, k)
	}
	return censuses[k][p.p.Canonical()]
}

func allVerts(p *Pattern) []int {
	vs := make([]int, p.NumVertices())
	for i := range vs {
		vs[i] = i
	}
	return vs
}

// TestStealOpCountsThreadIndependent runs the same query under 1, 2, 4
// and 7 workers (odd counts shift the steal schedule) and requires
// byte-identical per-opcode totals in Result.Stats.Exec every time.
func TestStealOpCountsThreadIndependent(t *testing.T) {
	g := GenerateRMAT(9, 7, 601)
	p, err := PatternByName("house")
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]int64
	var baseCount int64
	for _, threads := range []int{1, 2, 4, 7} {
		sys := differentialSystem(g, threads)
		r, err := sys.CountPattern(p)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		c, st := r.Count, r.Stats.Exec
		if base == nil {
			base, baseCount = st.PerOp, c
			sys.Close()
			continue
		}
		if c != baseCount {
			t.Fatalf("threads=%d: count %d != %d", threads, c, baseCount)
		}
		if len(st.PerOp) != len(base) {
			t.Fatalf("threads=%d: %d opcodes != %d", threads, len(st.PerOp), len(base))
		}
		for op, n := range base {
			if st.PerOp[op] != n {
				t.Fatalf("threads=%d: op %s executed %d times, want %d", threads, op, st.PerOp[op], n)
			}
		}
		sys.Close()
	}
}

// TestStealDeterministicRepeats re-runs one query many times on a
// shared pool: the count must never vary with the (nondeterministic)
// steal schedule.
func TestStealDeterministicRepeats(t *testing.T) {
	g := GenerateRMAT(8, 8, 701)
	sys := differentialSystem(g, 4)
	defer sys.Close()
	p, err := PatternByName("cycle-4")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.CountPattern(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := sys.CountPattern(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Fatalf("repeat %d: %d != %d", i, got.Count, want.Count)
		}
		if got.Stats.Exec.Instructions == 0 {
			t.Fatalf("repeat %d: no instructions recorded", i)
		}
	}
}
