// Package copyprop implements global copy propagation: a use of x,
// where x is defined exactly once and that definition is "x ← cp y"
// with y itself defined at most once, reads the same value as y, so
// the use can name y directly. The copies this leaves dead are
// removed by dead-code elimination, and the register allocator's
// coalescer handles the loop-carried copies this pass cannot touch.
//
// The single-definition requirements make the transformation sound in
// the non-SSA IL: with one definition of y there is no program point
// where x is live but y holds a different value, and the dominance
// requirement — the copy must dominate every use of x — rules out
// paths that could read x before its definition. The pass checks it
// in one sweep over all uses, dropping each candidate copy that fails
// to dominate a use, and keeps its per-register tables in slices.
package copyprop

import (
	"regpromo/internal/cfg"
	"regpromo/internal/ir"
)

// Run propagates copies in every function; it returns the number of
// copies propagated.
func Run(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		n += Func(fn)
	}
	return n
}

// Func propagates copies in one function.
func Func(fn *ir.Func) int {
	fn.RemoveUnreachable()
	dom := cfg.Dominators(fn)

	defCount := make([]int32, fn.NumRegs)
	for _, p := range fn.Params {
		defCount[p]++
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.RegInvalid {
				defCount[d]++
			}
		}
	}

	// Candidates: x ← cp y with x defined once and y at most once.
	// site[x] is the copy's position (block, index); forward maps x to
	// y while x is a candidate and is RegInvalid otherwise.
	type defSite struct {
		b *ir.Block
		i int
	}
	forward := make([]ir.Reg, fn.NumRegs)
	site := make([]defSite, fn.NumRegs)
	for i := range forward {
		forward[i] = ir.RegInvalid
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpCopy {
				continue
			}
			x, y := in.Dst, in.A
			if defCount[x] != 1 || defCount[y] > 1 {
				continue
			}
			forward[x] = y
			site[x] = defSite{b, i}
		}
	}
	// One sweep over every use drops the candidates whose copy does
	// not dominate all of their uses.
	var buf [8]ir.Reg
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			for _, u := range b.Instrs[i].Uses(buf[:0]) {
				if forward[u] == ir.RegInvalid {
					continue
				}
				d := site[u]
				if d.b == b && i <= d.i || d.b != b && !dom.Dominates(d.b, b) {
					forward[u] = ir.RegInvalid
				}
			}
		}
	}
	nf := 0
	for _, y := range forward {
		if y != ir.RegInvalid {
			nf++
		}
	}
	if nf == 0 {
		return 0
	}
	// Resolve chains x -> y -> z.
	resolve := func(r ir.Reg) ir.Reg {
		for i := 0; i < nf; i++ {
			y := forward[r]
			if y == ir.RegInvalid {
				return r
			}
			r = y
		}
		return r
	}

	n := 0
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			b.Instrs[i].MapUses(func(u ir.Reg) ir.Reg {
				v := resolve(u)
				if v != u {
					n++
				}
				return v
			})
		}
	}
	return n
}
