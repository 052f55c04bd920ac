// Package licm implements loop-invariant code motion: pure register
// computations whose operands do not change inside a loop are hoisted
// to the loop's landing pad. Address computations hoisted this way are
// what the §3.3 pointer-based promotion keys on ("This algorithm
// relies on loop-invariant code motion to identify the loop-invariant
// base registers and place the computation of these registers outside
// a loop"). cLoads (invariant-by-contract memory values, Table 1) are
// hoisted too; sLoad/pLoad removal is left to promotion and PRE,
// matching the paper's division of labor.
//
// Because the IL is not in SSA form, a hoist candidate must satisfy
// strict conditions: it is the register's only definition in the
// function, it dominates every use of the register, its operands have
// no definitions inside the loop, and the operation cannot fault when
// executed speculatively (division is excluded).
package licm

import (
	"regpromo/internal/cfg"
	"regpromo/internal/ir"
)

// Run hoists invariant code in every function and returns the number
// of instructions moved.
func Run(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		n += Func(fn)
	}
	return n
}

// Func hoists invariant code in one function.
func Func(fn *ir.Func) int {
	dom, forest := cfg.Normalize(fn)
	if len(forest.Loops) == 0 {
		return 0
	}
	st := newState(fn, dom)
	moved := 0
	// Innermost loops first, so code migrates outward one level per
	// pass; repeat until nothing moves.
	for {
		n := 0
		loops := forest.PreorderLoops()
		for i := len(loops) - 1; i >= 0; i-- {
			n += st.hoist(loops[i])
		}
		moved += n
		if n == 0 {
			return moved
		}
	}
}

type state struct {
	dom *cfg.DomTree
	// defCount counts definitions per register over the whole
	// function; maintained across hoists (moves do not change it).
	defCount []int32
	// loopDefs is scratch for hoist, reused across loops.
	loopDefs []int32
	// The blocks of r's uses, one entry per use operand, are
	// useBlock[useStart[r]:useStart[r+1]] in compressed sparse rows.
	// A hoist moves its instruction's entries to the pad, so the rows
	// stay exact as code moves.
	useStart []int32
	useBlock []*ir.Block
}

func newState(fn *ir.Func, dom *cfg.DomTree) *state {
	n := fn.NumRegs
	ints := make([]int32, 3*n+1)
	st := &state{
		dom:      dom,
		defCount: ints[:n:n],
		loopDefs: ints[n : 2*n : 2*n],
		useStart: ints[2*n:],
	}
	// Parameters carry an implicit entry definition.
	for _, p := range fn.Params {
		st.defCount[p]++
	}
	var buf [8]ir.Reg
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.RegInvalid {
				st.defCount[d]++
			}
			for _, u := range in.Uses(buf[:0]) {
				st.useStart[u+1]++
			}
		}
	}
	for r := 0; r < n; r++ {
		st.useStart[r+1] += st.useStart[r]
	}
	st.useBlock = make([]*ir.Block, st.useStart[n])
	cursor := st.loopDefs // zero until the first hoist, which clears it
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			for _, u := range b.Instrs[i].Uses(buf[:0]) {
				st.useBlock[st.useStart[u]+cursor[u]] = b
				cursor[u]++
			}
		}
	}
	return st
}

// hoist moves invariant instructions of l into its landing pad.
func (st *state) hoist(l *cfg.Loop) int {
	moved := 0
	// Definitions inside this loop.
	loopDefs := st.loopDefs
	clear(loopDefs)
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.RegInvalid {
				loopDefs[d]++
			}
		}
	}
	var buf [8]ir.Reg
	for _, b := range l.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := &b.Instrs[i]
			if !hoistable(in) {
				continue
			}
			d := in.Def()
			if d == ir.RegInvalid || st.defCount[d] != 1 {
				continue
			}
			invariant := true
			for _, u := range in.Uses(buf[:0]) {
				if loopDefs[u] != 0 {
					invariant = false
					break
				}
			}
			if !invariant || !st.dominatesAllUses(b, i, d) {
				continue
			}
			hoisted := in.Clone()
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			i--
			insertBeforeTerminator(l.Pad, hoisted)
			for _, u := range hoisted.Uses(buf[:0]) {
				st.moveUse(u, b, l.Pad)
			}
			loopDefs[d] = 0
			moved++
		}
	}
	return moved
}

// moveUse records that one use of r moved from block from to block to.
func (st *state) moveUse(r ir.Reg, from, to *ir.Block) {
	row := st.useBlock[st.useStart[r]:st.useStart[r+1]]
	for i, b := range row {
		if b == from {
			row[i] = to
			return
		}
	}
}

// dominatesAllUses reports whether the definition at (db, di) dominates
// every use of r in the function: each use block other than db must be
// dominated by db, and no use in db may come at or before di.
func (st *state) dominatesAllUses(db *ir.Block, di int, r ir.Reg) bool {
	inDefBlock := false
	for _, b := range st.useBlock[st.useStart[r]:st.useStart[r+1]] {
		if b == db {
			inDefBlock = true
		} else if !st.dom.Dominates(db, b) {
			return false
		}
	}
	if !inDefBlock {
		return true
	}
	var buf [8]ir.Reg
	for i := 0; i <= di; i++ {
		for _, u := range db.Instrs[i].Uses(buf[:0]) {
			if u == r {
				return false
			}
		}
	}
	return true
}

// hoistable reports whether the instruction may be executed
// speculatively in the landing pad: pure, no memory access, and
// incapable of faulting (division is excluded).
func hoistable(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpLoadI, ir.OpLoadF, ir.OpAddrOf,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpNeg,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot, ir.OpShl, ir.OpShr,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFNeg,
		ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE,
		ir.OpI2F, ir.OpF2I:
		return true
	case ir.OpCLoad:
		// cLoad names an invariant value by definition (Table 1).
		return true
	}
	return false
}

func insertBeforeTerminator(b *ir.Block, in ir.Instr) {
	n := len(b.Instrs)
	b.Instrs = append(b.Instrs, ir.Instr{})
	copy(b.Instrs[n:], b.Instrs[n-1:])
	b.Instrs[n-1] = in
}
