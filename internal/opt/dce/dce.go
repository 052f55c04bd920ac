// Package dce implements dead-code elimination: instructions whose
// results are never used and which have no side effects (stores,
// calls, control flow) are deleted. Dead loads are removed too — a
// load's only observable effect is its result.
package dce

import (
	"regpromo/internal/ir"
)

// Run eliminates dead code in every function and returns the number
// of instructions removed.
func Run(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		n += Func(fn)
	}
	return n
}

// Func eliminates dead code in one function.
func Func(fn *ir.Func) int {
	removed := 0
	var buf [8]ir.Reg
	n := fn.NumRegs
	live := make([]bool, n)
	// The removable definitions of r are defs[defStart[r]:defStart[r+1]]
	// in compressed sparse rows, rebuilt each round into the same
	// arrays: a round only deletes instructions, so defs never grows.
	ints := make([]int32, 2*n+1)
	defStart, cursor := ints[:n+1], ints[n+1:]
	var defs []*ir.Instr
	var stack []ir.Reg
	for {
		// Sparse mark phase: seed liveness from the operands of
		// side-effecting and control instructions, then drain a
		// register stack — a register going live revives the pure
		// instructions that define it, which keeps their own operands
		// alive in turn. Marking is monotone, so the drain order does
		// not matter: the result is the least fixpoint.
		clear(live)
		clear(defStart)
		mark := func(r ir.Reg) {
			if !live[r] {
				live[r] = true
				stack = append(stack, r)
			}
		}
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if isRemovable(in) {
					if d := in.Def(); d != ir.RegInvalid {
						defStart[d+1]++
					}
					continue
				}
				for _, u := range in.Uses(buf[:0]) {
					mark(u)
				}
			}
		}
		for r := 0; r < n; r++ {
			defStart[r+1] += defStart[r]
		}
		if defs == nil {
			defs = make([]*ir.Instr, defStart[n])
		}
		copy(cursor, defStart[:n])
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if !isRemovable(in) {
					continue
				}
				if d := in.Def(); d != ir.RegInvalid {
					defs[cursor[d]] = in
					cursor[d]++
				}
			}
		}
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, in := range defs[defStart[r]:defStart[r+1]] {
				for _, u := range in.Uses(buf[:0]) {
					mark(u)
				}
			}
		}
		swept := sweep(fn, live)
		removed += swept
		if swept == 0 {
			return removed
		}
	}
}

// isRemovable reports whether the instruction may be deleted when its
// result is dead.
func isRemovable(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpSStore, ir.OpPStore, ir.OpJsr, ir.OpBr, ir.OpCBr, ir.OpRet:
		return false
	case ir.OpNop:
		return true
	}
	return true
}

func sweep(fn *ir.Func, live []bool) int {
	n := 0
	for _, b := range fn.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op == ir.OpNop {
				n++
				continue
			}
			if isRemovable(&in) && (in.Def() == ir.RegInvalid || !live[in.Def()]) {
				n++
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return n
}
