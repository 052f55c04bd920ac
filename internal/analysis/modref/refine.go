package modref

import "regpromo/internal/ir"

// RefineMemOps rewrites pointer-based memory operations whose tag set
// has been narrowed to a single strong scalar location into explicit
// scalar operations. This is how sharper analysis feeds register
// promotion: a pLoad that provably touches only tag T becomes an
// sLoad of T, making T's references explicit (paper §5: "pointer
// analysis can discover that the stores through p2 cannot modify T1,
// and thus T1 can be promoted").
//
// The rewrite requires the tag to be strong (one run-time location per
// activation) and the access width to match the tag's scalar size;
// otherwise the operation keeps its pointer form. It returns the
// number of operations rewritten.
func RefineMemOps(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpPLoad:
					if tag, ok := refinable(m, fn, in); ok {
						*in = ir.Instr{Op: ir.OpSLoad, Dst: in.Dst, Tag: tag, Size: in.Size}
						n++
					}
				case ir.OpPStore:
					if tag, ok := refinable(m, fn, in); ok {
						*in = ir.Instr{Op: ir.OpSStore, A: in.B, Tag: tag, Size: in.Size}
						n++
					}
				}
			}
		}
	}
	return n
}

func refinable(m *ir.Module, fn *ir.Func, in *ir.Instr) (ir.TagID, bool) {
	tag, ok := in.Tags().Singleton()
	if !ok {
		return ir.TagInvalid, false
	}
	t := m.Tags.Get(tag)
	if !t.Strong || t.Elem != int(in.Size) || t.Size != int(in.Size) {
		return ir.TagInvalid, false
	}
	// Scalar operations resolve locals in the executing function's
	// own frame; a pointer to another function's (live ancestor's)
	// local must stay in pointer form.
	if t.Kind == ir.TagLocal && t.Func != fn.Name {
		return ir.TagInvalid, false
	}
	return tag, true
}
