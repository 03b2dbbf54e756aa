package ast_test

import (
	"testing"

	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/cost"
	"decomine/internal/graph"
	"decomine/internal/pattern"
)

func cloneProgram(p *ast.Program) *ast.Program {
	q := *p
	q.Root = ast.Clone(p.Root)
	q.TableWidths = append([]int(nil), p.TableWidths...)
	return &q
}

// TestCSEMatchesReference runs the optimizer on every candidate program
// of every connected pattern up to 5 vertices — counting, vertex-induced
// and emitting searches — twice: once with CSE and once with the
// reference per-scope-map CSE. After every CSE round both must have
// merged the same number of definitions and print the same program.
func TestCSEMatchesReference(t *testing.T) {
	model := cost.NewLocality(cost.StatsOf(graph.GNP(60, 0.1, 4)), 0.25)
	searches := []core.SearchOptions{
		{Mode: core.ModeCount},
		{Mode: core.ModeCount, Induced: true},
		{Mode: core.ModeEmit},
	}
	programs := 0
	for k := 2; k <= 5; k++ {
		for _, p := range pattern.ConnectedPatterns(k) {
			for _, opts := range searches {
				opts.Model = model
				opts.DisableOptimize = true
				opts.Visit = func(c core.Candidate) {
					programs++
					a, b := cloneProgram(c.Plan.Prog), cloneProgram(c.Plan.Prog)
					for round := 0; round < 8; round++ {
						moved := ast.LICM(a)
						ast.LICM(b)
						got, want := ast.CSE(a), ast.CSEReference(b)
						if got != want {
							t.Fatalf("%s %s round %d: CSE merged %d, reference %d", p, c.Plan.Desc, round, got, want)
						}
						if ga, gb := ast.Print(a), ast.Print(b); ga != gb {
							t.Fatalf("%s %s round %d: programs differ\n--- CSE ---\n%s\n--- reference ---\n%s", p, c.Plan.Desc, round, ga, gb)
						}
						removed := ast.DCE(a)
						ast.DCE(b)
						if moved+got+removed == 0 {
							break
						}
					}
				}
				if _, _, err := core.Search(p, opts); err != nil {
					t.Fatalf("%s: %v", p, err)
				}
			}
		}
	}
	if programs == 0 {
		t.Fatal("no candidate programs")
	}
}
