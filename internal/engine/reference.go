package engine

import (
	"fmt"

	"decomine/internal/ast"
	"decomine/internal/graph"
	"decomine/internal/vset"
)

// RunReference interprets prog directly on its AST, sequentially, and
// returns the final global accumulators. It exists only for tests to
// compare Run against: it shares no code with the bytecode lowering, the
// VM dispatch loop, the hybrid set kernels or the parallel driver, and it
// supports no cancellation, fuel, pool, profiling or progress. pins
// preloads vertex variables [0, len(pins)); newConsumer (nil when prog
// has no KEmit nodes) is invoked once, for worker 0. A consumer that
// returns false stops the run, and the partial globals are returned.
func RunReference(g *graph.Graph, prog *ast.Program, pins []uint32, newConsumer func(worker int) Consumer) ([]int64, error) {
	if err := checkRun(prog, pins, newConsumer); err != nil {
		return nil, err
	}
	f := newFrame(g, prog)
	copy(f.vars, pins)
	if newConsumer != nil {
		f.consumer = newConsumer(0)
	}
	f.execOK(prog.Root)
	return f.globals, nil
}

// frame is the reference interpreter's register file.
type frame struct {
	g        *graph.Graph
	vars     []uint32
	sets     [][]uint32 // current value per set register
	bufs     [][]uint32 // backing storage per set register
	scalars  []int64
	globals  []int64
	tables   []*HashTable
	keyBuf   []uint32
	consumer Consumer
}

func newFrame(g *graph.Graph, prog *ast.Program) *frame {
	f := &frame{
		g:       g,
		vars:    make([]uint32, prog.NumVars),
		sets:    make([][]uint32, prog.NumSets),
		bufs:    make([][]uint32, prog.NumSets),
		scalars: make([]int64, prog.NumScalars),
		globals: make([]int64, prog.NumGlobals),
		keyBuf:  make([]uint32, 0, prog.MaxKey+4),
	}
	f.tables = make([]*HashTable, prog.NumTables)
	for i := range f.tables {
		width := 1
		if i < len(prog.TableWidths) && prog.TableWidths[i] > 0 {
			width = prog.TableWidths[i]
		}
		f.tables[i] = NewHashTable(width)
	}
	return f
}

// execOK interprets one node; false means "stop everything".
func (f *frame) execOK(n *ast.Node) bool {
	switch n.Kind {
	case ast.KRoot:
		for _, c := range n.Body {
			if !f.execOK(c) {
				return false
			}
		}
	case ast.KLoop:
		for _, v := range f.sets[n.Over] {
			f.vars[n.Var] = v
			for _, c := range n.Body {
				if !f.execOK(c) {
					return false
				}
			}
		}
	case ast.KSetDef:
		f.evalSet(n)
	case ast.KScalarDef:
		f.scalars[n.Dst] = f.evalScalar(n)
	case ast.KScalarReset:
		f.scalars[n.Dst] = n.Imm
	case ast.KScalarAccum:
		f.scalars[n.Dst] += n.Imm * f.scalars[n.SA]
	case ast.KGlobalAdd:
		f.globals[n.Dst] += n.Imm * f.scalars[n.SA]
	case ast.KHashClear:
		f.tables[n.Table].Clear()
	case ast.KHashInc:
		f.tables[n.Table].Add(f.key(n.Keys), n.Imm)
	case ast.KHashGet:
		f.scalars[n.Dst] = f.tables[n.Table].Get(f.key(n.Keys))
	case ast.KCondPos:
		if f.scalars[n.SA] > 0 {
			for _, c := range n.Body {
				if !f.execOK(c) {
					return false
				}
			}
		}
	case ast.KEmit:
		return f.consumer.Process(n.Sub, f.key(n.Keys), f.scalars[n.SA])
	default:
		panic(fmt.Sprintf("engine: unknown node kind %d", n.Kind))
	}
	return true
}

func (f *frame) key(vars []int) []uint32 {
	f.keyBuf = f.keyBuf[:len(vars)]
	for i, v := range vars {
		f.keyBuf[i] = f.vars[v]
	}
	return f.keyBuf
}

func (f *frame) evalSet(n *ast.Node) {
	dst := f.bufs[n.Dst]
	switch n.Op {
	case ast.OpAll:
		nv := f.g.NumVertices()
		if cap(dst) < nv {
			dst = make([]uint32, nv)
			for i := range dst {
				dst[i] = uint32(i)
			}
		}
		f.bufs[n.Dst] = dst[:nv]
		f.sets[n.Dst] = dst[:nv]
		return
	case ast.OpNeighbors:
		// Alias the CSR adjacency directly: zero copies.
		f.sets[n.Dst] = f.g.Neighbors(f.vars[n.V])
		return
	case ast.OpIntersect:
		dst = vset.Intersect(dst, f.sets[n.A], f.sets[n.B])
	case ast.OpSubtract:
		dst = vset.Subtract(dst, f.sets[n.A], f.sets[n.B])
	case ast.OpRemove:
		dst = vset.Remove(dst, f.sets[n.A], f.vars[n.V])
	case ast.OpTrimAbove:
		dst = vset.TrimAbove(dst, f.sets[n.A], f.vars[n.V])
	case ast.OpTrimBelow:
		dst = vset.TrimBelow(dst, f.sets[n.A], f.vars[n.V])
	case ast.OpCopy:
		dst = vset.Copy(dst, f.sets[n.A])
	case ast.OpFilterLabel:
		dst = dst[:0]
		want := uint32(n.Imm)
		for _, x := range f.sets[n.A] {
			if f.g.Label(x) == want {
				dst = append(dst, x)
			}
		}
	case ast.OpFilterLabelOfVar:
		dst = dst[:0]
		want := f.g.Label(f.vars[n.V])
		for _, x := range f.sets[n.A] {
			if f.g.Label(x) == want {
				dst = append(dst, x)
			}
		}
	case ast.OpFilterLabelNotOfVar:
		dst = dst[:0]
		avoid := f.g.Label(f.vars[n.V])
		for _, x := range f.sets[n.A] {
			if f.g.Label(x) != avoid {
				dst = append(dst, x)
			}
		}
	}
	f.bufs[n.Dst] = dst
	f.sets[n.Dst] = dst
}

func (f *frame) evalScalar(n *ast.Node) int64 {
	switch n.SOp {
	case ast.SSize:
		return int64(len(f.sets[n.A]))
	case ast.SConst:
		return n.Imm
	case ast.SMul:
		return f.scalars[n.SA] * f.scalars[n.SB]
	case ast.SDiv:
		d := f.scalars[n.SB]
		if d == 0 {
			return 0
		}
		return f.scalars[n.SA] / d
	case ast.SSub:
		return f.scalars[n.SA] - f.scalars[n.SB]
	case ast.SAdd:
		return f.scalars[n.SA] + f.scalars[n.SB]
	case ast.SCountAbove:
		return vset.CountAbove(f.sets[n.A], f.vars[n.V])
	case ast.SCountBelow:
		return vset.CountBelow(f.sets[n.A], f.vars[n.V])
	}
	panic(fmt.Sprintf("engine: unknown scalar op %d", n.SOp))
}
