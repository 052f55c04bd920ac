// Package valnum implements local value numbering with constant
// folding. Within each basic block, pure computations that repeat an
// earlier computation are replaced by register copies, constant
// operands fold at compile time, and memory-aware numbering removes
// loads that repeat an earlier load or store of the same tag when no
// intervening operation can have changed the location — the tag lists
// make that query exact.
package valnum

import (
	"sync"

	"regpromo/internal/ir"
)

// Run value-numbers every block of every function; it returns the
// number of instructions simplified.
func Run(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		n += Func(fn)
	}
	return n
}

// Func value-numbers one function.
func Func(fn *ir.Func) int {
	s := statePool.Get().(*valnumState)
	s.reset(fn.NumRegs)
	n := 0
	for _, b := range fn.Blocks {
		n += s.block(b)
	}
	statePool.Put(s)
	return n
}

// statePool holds value-numbering tables between functions, so a
// worker numbering function after function reuses one set: the maps
// are cleared block by block anyway, and the register arrays are
// bounded by the largest function served.
var statePool = sync.Pool{New: func() any { return newState() }}

// valnumState is the value-numbering tables, reused block to block
// and function to function. Value numbers restart at 1 in every
// block: the maps are cleared, and register numbers written in an
// earlier block (or function) carry an older generation stamp and read
// as unknown.
type valnumState struct {
	// gen stamps the current block.
	gen uint32
	// vn[r] is register r's value number when vnGen[r] == gen.
	vn    []int32
	vnGen []uint32
	// info is indexed by value number (entry 0 unused), so the
	// current block's highest value number is len(info)-1.
	info []vnInfo
	// expr maps an expression key to (value number, holding reg), and
	// addr does the same for address materializations.
	expr map[exprKey]exprVal
	addr map[addrKey]exprVal
	// constVN gives every distinct constant one value number, so
	// repeated loadI of the same literal share a class (and operand
	// canonicalization then drops the duplicates).
	constVN  map[int64]int32
	fconstVN map[uint64]int32
	// memVal maps a tag to the register holding its current value
	// (established by a load or store in this block).
	memVal map[ir.TagID]memFact
}

// vnInfo describes one value number.
type vnInfo struct {
	// leader is the first register that held the value (vn == 0 when
	// the value number has none), for operand canonicalization:
	// rewriting operands to the leader turns copy chains into direct
	// uses, which both exposes more matches here and lets
	// pointer-based promotion see one base register per address
	// (§3.3).
	leader exprVal
	// isConst marks a known integer constant c.
	isConst bool
	c       int64
}

// exprKey identifies a pure computation by its operator and operand
// value numbers (b is 0 for unary operators).
type exprKey struct {
	op   ir.Op
	a, b int32
}

// addrKey identifies an address materialization.
type addrKey struct {
	tag    ir.TagID
	callee string
}

type exprVal struct {
	vn  int32
	reg ir.Reg
}

// memFact records which register holds a tag's current value and the
// access width that established it.
type memFact struct {
	exprVal
	size int32
}

func newState() *valnumState {
	return &valnumState{
		expr:     make(map[exprKey]exprVal),
		addr:     make(map[addrKey]exprVal),
		constVN:  make(map[int64]int32),
		fconstVN: make(map[uint64]int32),
		memVal:   make(map[ir.TagID]memFact),
	}
}

// reset sizes the register arrays for a function of nregs registers.
// Stamps left in them by earlier functions are all older than the
// next block's generation, so they read as unknown.
func (s *valnumState) reset(nregs int) {
	if cap(s.vn) < nregs {
		s.vn = make([]int32, nregs)
		s.vnGen = make([]uint32, nregs)
		return
	}
	s.vn = s.vn[:nregs]
	s.vnGen = s.vnGen[:nregs]
}

// known returns r's value number in the current block, or 0.
func (s *valnumState) known(r ir.Reg) int32 {
	if s.vnGen[r] != s.gen {
		return 0
	}
	return s.vn[r]
}

func (s *valnumState) setVN(r ir.Reg, v int32) {
	s.vn[r] = v
	s.vnGen[r] = s.gen
}

// valid reports whether the recorded holding register still carries
// the recorded value. Registers are not in SSA form, so a later
// redefinition changes the register's value number and invalidates
// the fact.
func (s *valnumState) valid(e exprVal) bool { return s.known(e.reg) == e.vn }

// liveLeader returns v's leader when it still holds v.
func (s *valnumState) liveLeader(v int32) (exprVal, bool) {
	l := s.info[v].leader
	return l, l.vn != 0 && s.valid(l)
}

// newVN allocates the next value number.
func (s *valnumState) newVN() int32 {
	s.info = append(s.info, vnInfo{})
	return int32(len(s.info) - 1)
}

func (s *valnumState) valueOf(r ir.Reg) int32 {
	if v := s.known(r); v != 0 {
		return v
	}
	v := s.newVN()
	s.setVN(r, v)
	return v
}

// defConst records that r now holds the integer constant c, reusing
// the constant's existing value class when a live leader holds it.
func (s *valnumState) defConst(r ir.Reg, c int64) {
	if v, ok := s.constVN[c]; ok {
		if _, live := s.liveLeader(v); live {
			s.setVN(r, v)
			return
		}
	}
	v := s.fresh(r)
	s.info[v].isConst = true
	s.info[v].c = c
	s.constVN[c] = v
}

func (s *valnumState) fresh(r ir.Reg) int32 {
	v := s.newVN()
	s.setVN(r, v)
	s.info[v].leader = exprVal{vn: v, reg: r}
	return v
}

// clearMap empties m unless it is already empty (clearing costs time
// in the map's capacity, not its length).
func clearMap[K comparable, V any](m map[K]V) {
	if len(m) > 0 {
		clear(m)
	}
}

func (s *valnumState) block(b *ir.Block) int {
	s.gen++
	if s.gen == 0 {
		// The stamp wrapped: forget every stamp ever written.
		clear(s.vnGen[:cap(s.vnGen)])
		s.gen = 1
	}
	s.info = append(s.info[:0], vnInfo{})
	clearMap(s.expr)
	clearMap(s.addr)
	clearMap(s.constVN)
	clearMap(s.fconstVN)
	clearMap(s.memVal)
	changed := 0
	for i := range b.Instrs {
		in := &b.Instrs[i]
		// Canonicalize operands to their value leaders first, so a
		// register defined by a copy reads as the copied-from value.
		in.MapUses(func(u ir.Reg) ir.Reg {
			v := s.known(u)
			if v == 0 {
				return u
			}
			if l, ok := s.liveLeader(v); ok && l.reg != u {
				changed++
				return l.reg
			}
			return u
		})
		switch in.Op {
		case ir.OpLoadI:
			s.defConst(in.Dst, in.Imm)

		case ir.OpLoadF:
			bits := uint64(in.Imm)
			if v, ok := s.fconstVN[bits]; ok {
				if _, live := s.liveLeader(v); live {
					s.setVN(in.Dst, v)
					continue
				}
			}
			s.fconstVN[bits] = s.fresh(in.Dst)

		case ir.OpCopy:
			// The destination takes the source's value number, so
			// later expressions see through copies.
			s.setVN(in.Dst, s.valueOf(in.A))

		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
			ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
			va, vb := s.valueOf(in.A), s.valueOf(in.B)
			// Constant folding.
			if ca, cb := s.info[va], s.info[vb]; ca.isConst && cb.isConst {
				if c, ok := foldInt(in.Op, ca.c, cb.c); ok {
					*in = ir.Instr{Op: ir.OpLoadI, Dst: in.Dst, Imm: c}
					s.defConst(in.Dst, c)
					changed++
					continue
				}
			}
			if in.Op.IsCommutative() && vb < va {
				va, vb = vb, va
			}
			changed += number(s, s.expr, in, exprKey{op: in.Op, a: va, b: vb})

		case ir.OpNeg, ir.OpNot, ir.OpI2F, ir.OpF2I, ir.OpFNeg:
			va := s.valueOf(in.A)
			if ca := s.info[va]; in.Op == ir.OpNeg && ca.isConst {
				c := -ca.c
				*in = ir.Instr{Op: ir.OpLoadI, Dst: in.Dst, Imm: c}
				s.defConst(in.Dst, c)
				changed++
				continue
			}
			changed += number(s, s.expr, in, exprKey{op: in.Op, a: va})

		case ir.OpAddrOf:
			changed += number(s, s.addr, in, addrKey{tag: in.Tag, callee: in.Callee()})

		case ir.OpSLoad, ir.OpCLoad:
			if prev, ok := s.memVal[in.Tag]; ok && prev.size == in.Size && s.valid(prev.exprVal) {
				*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: prev.reg}
				s.setVN(in.Dst, prev.vn)
				changed++
				continue
			}
			v := s.fresh(in.Dst)
			s.memVal[in.Tag] = memFact{exprVal{vn: v, reg: in.Dst}, in.Size}

		case ir.OpSStore:
			// The store establishes the tag's current value. Any
			// other tag a pointer may alias is unaffected: scalar
			// stores name exactly one location.
			s.memVal[in.Tag] = memFact{exprVal{vn: s.valueOf(in.A), reg: in.A}, in.Size}

		case ir.OpPLoad:
			s.fresh(in.Dst)

		case ir.OpPStore:
			// Kill facts for every tag the store may touch.
			s.killTags(in.Tags())

		case ir.OpJsr:
			if in.Def() != ir.RegInvalid {
				s.fresh(in.Dst)
			}
			s.killTags(in.Mods())

		default:
			if d := in.Def(); d != ir.RegInvalid {
				s.fresh(d)
			}
		}
	}
	return changed
}

// number rewrites the pure computation in into a copy when table
// holds a register that still carries key's value, and otherwise gives
// its destination a fresh value number held under key. It returns 1
// when it rewrote in.
func number[K comparable](s *valnumState, table map[K]exprVal, in *ir.Instr, key K) int {
	if prev, ok := table[key]; ok && s.valid(prev) {
		*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: prev.reg}
		s.setVN(in.Dst, prev.vn)
		return 1
	}
	table[key] = exprVal{vn: s.fresh(in.Dst), reg: in.Dst}
	return 0
}

func (s *valnumState) killTags(tags ir.TagSet) {
	if tags.IsTop() {
		clear(s.memVal)
		return
	}
	tags.ForEach(func(t ir.TagID) {
		delete(s.memVal, t)
	})
}

// foldInt evaluates op on two constants when defined.
func foldInt(op ir.Op, a, b int64) (int64, bool) {
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

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
