package ast

// CSEReference exposes cseReference to the external test package.
var CSEReference = cseReference

// cseReference is the original CSE with one map per open scope. CSE must
// merge exactly the same definitions and leave exactly the same program.
func cseReference(p *Program) int {
	merged := 0
	vol := volatileScalars(p)
	setAlias := identity(p.NumSets)
	scalarAlias := identity(p.NumScalars)

	type key struct {
		kind Kind
		op   SetOp
		sop  ScalarOp
		a, b int
		v    int
		imm  int64
	}
	keyOf := func(n *Node) key {
		k := key{kind: n.Kind}
		switch n.Kind {
		case KSetDef:
			k.op = n.Op
			switch n.Op {
			case OpAll:
			case OpNeighbors:
				k.v = n.V + 1
			case OpIntersect:
				a, b := setAlias[n.A], setAlias[n.B]
				if a > b {
					a, b = b, a
				}
				k.a, k.b = a+1, b+1
			case OpSubtract:
				k.a, k.b = setAlias[n.A]+1, setAlias[n.B]+1
			case OpRemove, OpTrimAbove, OpTrimBelow:
				k.a, k.v = setAlias[n.A]+1, n.V+1
			case OpCopy:
				k.a = setAlias[n.A] + 1
			case OpFilterLabel:
				k.a, k.imm = setAlias[n.A]+1, n.Imm
			case OpFilterLabelOfVar, OpFilterLabelNotOfVar:
				k.a, k.v = setAlias[n.A]+1, n.V+1
			}
		case KScalarDef:
			k.sop = n.SOp
			switch n.SOp {
			case SSize:
				k.a = setAlias[n.A] + 1
			case SConst:
				k.imm = n.Imm
			case SMul, SAdd:
				a, b := scalarAlias[n.SA], scalarAlias[n.SB]
				if a > b {
					a, b = b, a
				}
				k.a, k.b = a+1, b+1
			case SDiv, SSub:
				k.a, k.b = scalarAlias[n.SA]+1, scalarAlias[n.SB]+1
			case SCountAbove, SCountBelow:
				k.a, k.v = setAlias[n.A]+1, n.V+1
			}
		}
		return k
	}

	// scope stack of maps key -> canonical dst register
	var rec func(body []*Node) []*Node
	scopes := []map[key]int{{}}
	lookup := func(k key) (int, bool) {
		for i := len(scopes) - 1; i >= 0; i-- {
			if r, ok := scopes[i][k]; ok {
				return r, true
			}
		}
		return 0, false
	}
	rewrite := func(n *Node) {
		// Apply aliases to all register operands.
		switch n.Kind {
		case KLoop:
			n.Over = setAlias[n.Over]
		case KSetDef:
			switch n.Op {
			case OpIntersect, OpSubtract:
				n.A, n.B = setAlias[n.A], setAlias[n.B]
			case OpRemove, OpTrimAbove, OpTrimBelow, OpCopy, OpFilterLabel,
				OpFilterLabelOfVar, OpFilterLabelNotOfVar:
				n.A = setAlias[n.A]
			}
		case KScalarDef:
			switch n.SOp {
			case SSize, SCountAbove, SCountBelow:
				n.A = setAlias[n.A]
			case SMul, SDiv, SSub, SAdd:
				n.SA, n.SB = scalarAlias[n.SA], scalarAlias[n.SB]
			}
		case KScalarAccum, KGlobalAdd, KCondPos, KEmit:
			n.SA = scalarAlias[n.SA]
		}
	}
	rec = func(body []*Node) []*Node {
		var out []*Node
		for _, n := range body {
			rewrite(n)
			if pure(n) && !readsVolatile(n, vol) {
				k := keyOf(n)
				if r, ok := lookup(k); ok {
					if n.Kind == KSetDef {
						setAlias[n.Dst] = r
					} else {
						scalarAlias[n.Dst] = r
					}
					merged++
					continue // drop duplicate def
				}
				scopes[len(scopes)-1][k] = n.Dst
			}
			if n.Kind == KLoop || n.Kind == KCondPos {
				scopes = append(scopes, map[key]int{})
				n.Body = rec(n.Body)
				scopes = scopes[:len(scopes)-1]
			}
			out = append(out, n)
		}
		return out
	}
	p.Root.Body = rec(p.Root.Body)
	return merged
}
