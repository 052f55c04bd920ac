// Package dse implements tag-based dead-store elimination, the
// extension §3.4 sketches for straight-line code: PRE removes the
// redundant loads but "must treat stores more conservatively.
// Extending the promoter could improve the behavior for these
// stores." A scalar store is dead when the location is overwritten
// again before anything can read it; the tag lists make the
// may-read question exact.
//
// The pass works backward through each block, tracking which tags are
// certainly overwritten later in the block with no intervening
// possible read. At a return, every frame-local tag of the function
// is additionally dead: the frame ceases to exist, and any read a
// callee could have performed through an escaped pointer is visible
// in the call's REF list before the return is reached.
package dse

import "regpromo/internal/ir"

// Run eliminates dead scalar stores in every function and returns the
// number removed.
func Run(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		n += Func(m, fn)
	}
	return n
}

// Func eliminates dead scalar stores in one function.
func Func(m *ir.Module, fn *ir.Func) int {
	// Tags local to this function's frame (dead once it returns).
	var ownLocals ir.TagSet
	for _, t := range fn.Locals {
		ownLocals.Add(t)
	}

	removed := 0
	for _, b := range fn.Blocks {
		// dead holds the tags that every path from this point within
		// the block overwrites before any possible read. Seeded at a
		// return with the function's own frame tags.
		var dead ir.TagSet
		if term := b.Terminator(); term != nil && term.Op == ir.OpRet {
			dead = ownLocals.Clone()
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpSStore:
				if dead.Has(in.Tag) {
					*in = ir.Instr{Op: ir.OpNop}
					removed++
					continue
				}
				dead.Add(in.Tag)
			case ir.OpSLoad, ir.OpCLoad:
				dead.Remove(in.Tag)
			case ir.OpPLoad:
				in.Tags().SubtractInto(&dead)
			case ir.OpPStore:
				// A pointer store may only PARTIALLY overwrite a
				// tag (an array element); it never makes a tag
				// dead, and it reads nothing.
			case ir.OpJsr:
				in.Refs().SubtractInto(&dead)
				// The callee may also store-then-read internally;
				// only its REF set matters for deadness here, but
				// tags it may write are not "overwritten later"
				// from this block's perspective either — a write in
				// the callee happens before the later overwrite, so
				// deadness of the CALLER's later store region is
				// unaffected. Its own stores are its business.
			}
		}
		// Drop the nops.
		out := b.Instrs[:0]
		for i := range b.Instrs {
			if b.Instrs[i].Op != ir.OpNop {
				out = append(out, b.Instrs[i])
			}
		}
		b.Instrs = out
	}
	return removed
}
