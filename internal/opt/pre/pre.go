// Package pre implements the load-redundancy half of partial
// redundancy elimination. The paper's compiler uses PRE with memory
// tag information to remove redundant loads in straight-line code
// while treating stores conservatively (§3.4: "It uses the tag fields
// to eliminate redundant loads. It must treat stores more
// conservatively."); this pass does the same, globally.
//
// The analysis computes, for every block boundary, the set of
// available (tag, register) pairs: pairs such that on every incoming
// path the register holds the tag's current memory value. A load
// generates its (tag, destination) pair; a scalar store generates
// (tag, source); an ambiguous write kills every pair for the tags it
// may touch; redefining a register kills the pairs it holds. Only
// single-definition registers participate, so a pair can never be
// silently invalidated by an unrelated redefinition on another path.
// Gen and kill are independent of the incoming fact set, which makes
// the transfer functions distributive and the fixed point exact.
//
// Every pair a function can generate is enumerated once, up front, so
// the sets are dense bit vectors over that fact universe: the meet is
// a word-wise AND, and each register and each tag carries the list or
// mask of the facts a redefinition or a store of it kills.
//
// A later sLoad of a tag with an available pair is rewritten into a
// copy from the holding register. This also achieves "most of the
// effects of promotion in straight-line code" (§3.1).
package pre

import (
	"math/bits"
	"slices"

	"regpromo/internal/dataflow"
	"regpromo/internal/ir"
)

// Run eliminates redundant loads in every function; it returns the
// number of loads removed.
func Run(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		n += Func(fn)
	}
	return n
}

// universe enumerates a function's facts. A fact is one available
// pair: reg holds tag's current value, loaded or stored with the given
// access width. Fact sets are bit vectors of nw words indexed by fact
// number.
type universe struct {
	nw int
	// tag, reg and size describe each fact.
	tag  []ir.TagID
	reg  []ir.Reg
	size []int32
	// regHead[r] is r's first fact and next[f] the next fact of the
	// same register (-1 ends both chains).
	regHead []int32
	next    []int32
	// tagIndex numbers the tags that have facts; tags and tagMask
	// (nw words per tag) are indexed by that number.
	tagIndex map[ir.TagID]int32
	tags     []ir.TagID
	tagMask  []uint64
}

// lookup returns the fact (tag, r, size), or -1 when the function has
// no such fact.
func (u *universe) lookup(tag ir.TagID, r ir.Reg, size int32) int32 {
	for f := u.regHead[r]; f >= 0; f = u.next[f] {
		if u.size[f] == size && u.tag[f] == tag {
			return f
		}
	}
	return -1
}

// intern adds the fact (tag, r, size) if it is new.
func (u *universe) intern(tag ir.TagID, r ir.Reg, size int32) {
	if u.lookup(tag, r, size) >= 0 {
		return
	}
	if _, ok := u.tagIndex[tag]; !ok {
		u.tagIndex[tag] = int32(len(u.tags))
		u.tags = append(u.tags, tag)
	}
	f := int32(len(u.reg))
	u.tag = append(u.tag, tag)
	u.reg = append(u.reg, r)
	u.size = append(u.size, size)
	u.next = append(u.next, u.regHead[r])
	u.regHead[r] = f
}

// newUniverse enumerates the facts fn's loads and stores of
// single-definition registers can generate.
func newUniverse(fn *ir.Func, defCount []int32) *universe {
	u := &universe{regHead: make([]int32, fn.NumRegs), tagIndex: make(map[ir.TagID]int32)}
	for i := range u.regHead {
		u.regHead[i] = -1
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpSLoad, ir.OpCLoad:
				if defCount[in.Dst] == 1 {
					u.intern(in.Tag, in.Dst, in.Size)
				}
			case ir.OpSStore:
				if defCount[in.A] == 1 {
					u.intern(in.Tag, in.A, in.Size)
				}
			}
		}
	}
	u.nw = (len(u.reg) + 63) / 64
	u.tagMask = make([]uint64, len(u.tags)*u.nw)
	for f, tag := range u.tag {
		u.tagMask[int(u.tagIndex[tag])*u.nw+f/64] |= 1 << (uint(f) % 64)
	}
	return u
}

func (u *universe) mask(t int32) []uint64 { return u.tagMask[int(t)*u.nw : int(t+1)*u.nw] }

// Func eliminates redundant loads in one function.
func Func(fn *ir.Func) int {
	fn.RemoveUnreachable()
	n := len(fn.Blocks)

	defCount := make([]int32, fn.NumRegs)
	// Parameters carry an implicit entry definition.
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
	u := newUniverse(fn, defCount)
	nw := u.nw

	// Solve forward over the worklist kernel (reverse-postorder
	// visits, so every block except the entry sees a processed
	// predecessor on the first pass). An OUT not yet computed means ⊤,
	// and such predecessors are skipped in the meet; they must never
	// be treated as ∅, or the descent from ⊤ would lose monotonicity
	// and could cycle. IN is recorded only for blocks the solve
	// reached.
	in := make([]uint64, n*nw)
	out := make([]uint64, n*nw)
	inSet := make([]bool, n)
	outSet := make([]bool, n)
	set := func(v []uint64, b ir.BlockID) []uint64 { return v[int(b)*nw : int(b+1)*nw] }
	cur := make([]uint64, nw)
	dataflow.SolveBlocks(fn, dataflow.Forward, func(b *ir.Block) bool {
		if b == fn.Entry {
			clear(cur) // nothing is available at entry
		} else {
			first := true
			for _, p := range b.Preds {
				if !outSet[p.ID] {
					continue // ⊤: contributes nothing to the meet
				}
				po := set(out, p.ID)
				if first {
					copy(cur, po)
					first = false
				} else {
					for j := range cur {
						cur[j] &= po[j]
					}
				}
			}
			if first {
				// Every predecessor still ⊤: re-queued when one is.
				return false
			}
		}
		copy(set(in, b.ID), cur)
		inSet[b.ID] = true
		u.transfer(b, cur, false)
		bo := set(out, b.ID)
		if outSet[b.ID] && slices.Equal(bo, cur) {
			return false
		}
		copy(bo, cur)
		outSet[b.ID] = true
		return true
	})

	removed := 0
	for _, b := range fn.Blocks {
		if !inSet[b.ID] {
			continue // unreachable in RPO (no processed predecessor)
		}
		removed += u.transfer(b, set(in, b.ID), true)
	}
	return removed
}

// transfer applies b's instructions to cur; in rewrite mode redundant
// loads become copies. A rewritten load records no fact: its
// destination does hold the tag's value, but only the analysis pass
// records that pair, and in rewrite mode later loads in the block
// keep copying from the original holder.
func (u *universe) transfer(b *ir.Block, cur []uint64, rewrite bool) int {
	removed := 0
	for i := range b.Instrs {
		instr := &b.Instrs[i]
		switch instr.Op {
		case ir.OpSLoad, ir.OpCLoad:
			if rewrite {
				if r, ok := u.holder(cur, instr.Tag, instr.Size); ok && r != instr.Dst {
					*instr = ir.Instr{Op: ir.OpCopy, Dst: instr.Dst, A: r}
					u.killReg(cur, instr.Dst)
					removed++
					continue
				}
			}
			u.killReg(cur, instr.Dst)
			u.gen(cur, instr.Tag, instr.Dst, instr.Size)
		case ir.OpSStore:
			if t, ok := u.tagIndex[instr.Tag]; ok {
				andNot(cur, u.mask(t))
			}
			u.gen(cur, instr.Tag, instr.A, instr.Size)
		case ir.OpPStore:
			u.killTags(cur, instr.Tags())
		case ir.OpJsr:
			u.killTags(cur, instr.Mods())
			if d := instr.Def(); d != ir.RegInvalid {
				u.killReg(cur, d)
			}
		default:
			if d := instr.Def(); d != ir.RegInvalid {
				u.killReg(cur, d)
			}
		}
	}
	return removed
}

// gen adds the fact (tag, r, size); only single-definition registers
// have facts, so it does nothing for any other register.
func (u *universe) gen(cur []uint64, tag ir.TagID, r ir.Reg, size int32) {
	if f := u.lookup(tag, r, size); f >= 0 {
		cur[f/64] |= 1 << (uint(f) % 64)
	}
}

// holder picks the available register for (tag, size),
// deterministically (lowest register number).
func (u *universe) holder(cur []uint64, tag ir.TagID, size int32) (ir.Reg, bool) {
	t, ok := u.tagIndex[tag]
	if !ok {
		return ir.RegInvalid, false
	}
	best := ir.RegInvalid
	for j, m := range u.mask(t) {
		for w := m & cur[j]; w != 0; w &= w - 1 {
			f := j*64 + bits.TrailingZeros64(w)
			if u.size[f] == size && (best == ir.RegInvalid || u.reg[f] < best) {
				best = u.reg[f]
			}
		}
	}
	return best, best != ir.RegInvalid
}

func (u *universe) killReg(cur []uint64, r ir.Reg) {
	for f := u.regHead[r]; f >= 0; f = u.next[f] {
		cur[f/64] &^= 1 << (uint(f) % 64)
	}
}

func (u *universe) killTags(cur []uint64, tags ir.TagSet) {
	if tags.IsTop() {
		clear(cur)
		return
	}
	for t, id := range u.tags {
		if tags.Has(id) {
			andNot(cur, u.mask(int32(t)))
		}
	}
}

func andNot(cur, mask []uint64) {
	for j := range cur {
		cur[j] &^= mask[j]
	}
}
