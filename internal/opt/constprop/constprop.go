// Package constprop implements global constant propagation over
// registers. The IL is not in SSA form, so the pass exploits the fact
// that most temporaries have a single static definition: a register
// defined exactly once, by a constant, is that constant everywhere it
// is used (uses are always dominated by the definition in well-formed
// input). Folding iterates with local simplification until no new
// constants appear.
package constprop

import (
	"regpromo/internal/dataflow"
	"regpromo/internal/ir"
)

// Run propagates constants through every function; it returns the
// number of instructions folded.
func Run(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		n += Func(fn)
	}
	return n
}

// Func propagates constants through one function.
func Func(fn *ir.Func) int {
	folded := 0
	// Per-register tables, rebuilt every round: the definition count
	// and, for a register whose (last) definition is a loadI, its
	// constant.
	defCount := make([]int32, fn.NumRegs)
	constVal := make([]int64, fn.NumRegs)
	isConst := make([]bool, fn.NumRegs)
	for {
		clear(defCount)
		clear(isConst)
		// Parameters are defined implicitly at entry by the calling
		// convention; an in-body assignment is therefore a SECOND
		// definition, never a unique one.
		for _, p := range fn.Params {
			defCount[p]++
		}
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if d := in.Def(); d != ir.RegInvalid {
					defCount[d]++
					if in.Op == ir.OpLoadI {
						constVal[d] = in.Imm
						isConst[d] = true
					}
				}
			}
		}
		known := func(r ir.Reg) (int64, bool) {
			if defCount[r] == 1 && isConst[r] {
				return constVal[r], true
			}
			return 0, false
		}
		// A fold that produces a LoadI makes its destination known
		// immediately — the next round would rediscover exactly this
		// fact, so registering it now only accelerates convergence
		// (the fixpoint is the same; rewrites never retract).
		setConst := func(d ir.Reg, v int64) {
			if defCount[d] == 1 {
				constVal[d] = v
				isConst[d] = true
			}
		}

		changed := 0
		// Visit blocks in reverse postorder so a constant discovered
		// in a block is usually seen before the blocks it flows to.
		for _, b := range dataflow.ReversePostorder(fn) {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
					ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
					ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
					a, aok := known(in.A)
					bb, bok := known(in.B)
					if aok && bok {
						if c, ok := fold(in.Op, a, bb); ok {
							*in = ir.Instr{Op: ir.OpLoadI, Dst: in.Dst, Imm: c}
							setConst(in.Dst, c)
							changed++
						}
						continue
					}
					// Algebraic identities with one constant side.
					if c, ok := simplifyIdentity(in, aok, a, bok, bb); ok {
						*in = c
						if c.Op == ir.OpLoadI {
							setConst(c.Dst, c.Imm)
						}
						changed++
					}
				case ir.OpNeg:
					if a, ok := known(in.A); ok {
						*in = ir.Instr{Op: ir.OpLoadI, Dst: in.Dst, Imm: -a}
						setConst(in.Dst, -a)
						changed++
					}
				case ir.OpNot:
					if a, ok := known(in.A); ok {
						*in = ir.Instr{Op: ir.OpLoadI, Dst: in.Dst, Imm: ^a}
						setConst(in.Dst, ^a)
						changed++
					}
				case ir.OpCopy:
					if a, ok := known(in.A); ok {
						*in = ir.Instr{Op: ir.OpLoadI, Dst: in.Dst, Imm: a}
						setConst(in.Dst, a)
						changed++
					}
				case ir.OpCBr:
					if a, ok := known(in.A); ok {
						// Fold the branch: keep the taken edge.
						taken, dead := b.Succs[0], b.Succs[1]
						if a == 0 {
							taken, dead = dead, taken
						}
						*in = ir.Instr{Op: ir.OpBr}
						b.Succs = []*ir.Block{taken}
						dead.Preds = removeOne(dead.Preds, b)
						if dead == taken {
							// Both arms identical: predecessor list
							// already repaired by removeOne.
							b.Succs = []*ir.Block{taken}
						}
						changed++
					}
				}
			}
		}
		folded += changed
		if changed == 0 {
			fn.RemoveUnreachable()
			return folded
		}
	}
}

// simplifyIdentity rewrites x+0, x-0, x*1, x*0, x|0, x&0, x^0, x<<0,
// x>>0 into copies or constants.
func simplifyIdentity(in *ir.Instr, aok bool, a int64, bok bool, b int64) (ir.Instr, bool) {
	cp := func(src ir.Reg) (ir.Instr, bool) {
		return ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: src}, true
	}
	konst := func(v int64) (ir.Instr, bool) {
		return ir.Instr{Op: ir.OpLoadI, Dst: in.Dst, Imm: v}, true
	}
	switch in.Op {
	case ir.OpAdd:
		if aok && a == 0 {
			return cp(in.B)
		}
		if bok && b == 0 {
			return cp(in.A)
		}
	case ir.OpSub, ir.OpShl, ir.OpShr, ir.OpXor, ir.OpOr:
		if bok && b == 0 {
			return cp(in.A)
		}
	case ir.OpMul:
		if aok && a == 1 {
			return cp(in.B)
		}
		if bok && b == 1 {
			return cp(in.A)
		}
		if (aok && a == 0) || (bok && b == 0) {
			return konst(0)
		}
	case ir.OpAnd:
		if (aok && a == 0) || (bok && b == 0) {
			return konst(0)
		}
	case ir.OpDiv:
		if bok && b == 1 {
			return cp(in.A)
		}
	}
	return ir.Instr{}, false
}

func removeOne(list []*ir.Block, b *ir.Block) []*ir.Block {
	for i, x := range list {
		if x == b {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

func fold(op ir.Op, a, b int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.OpRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << (uint64(b) & 63), true
	case ir.OpShr:
		return a >> (uint64(b) & 63), true
	case ir.OpCmpEQ:
		return b2i(a == b), true
	case ir.OpCmpNE:
		return b2i(a != b), true
	case ir.OpCmpLT:
		return b2i(a < b), true
	case ir.OpCmpLE:
		return b2i(a <= b), true
	case ir.OpCmpGT:
		return b2i(a > b), true
	case ir.OpCmpGE:
		return b2i(a >= b), true
	}
	return 0, false
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
