package ir

import "math"

// Reg is a register number. Before allocation registers are virtual
// and unbounded; after allocation they name physical registers.
// RegInvalid marks an absent operand or result.
type Reg int32

// RegInvalid is the absent-register sentinel.
const RegInvalid Reg = -1

// Instr is one IL instruction. Fields are used per-opcode:
//
//	LoadI            Dst ← Imm
//	LoadF            Dst ← float64frombits(Imm)
//	Copy, Neg, Not,
//	FNeg, I2F, F2I   Dst ← op A
//	binary ops       Dst ← A op B
//	CLoad            Dst ← mem[Tag]          (invariant value)
//	SLoad            Dst ← mem[Tag]
//	SStore           mem[Tag] ← A
//	PLoad            Dst ← mem[A]            (may touch Tags())
//	PStore           mem[A] ← B              (may touch Tags())
//	AddrOf           Dst ← &Tag              (function address when Callee() != "")
//	Br               (successor on Block)
//	CBr              if A != 0 → Succs[0] else Succs[1]
//	Ret              return A when HasValue
//	Jsr              Dst ← Callee()(Args()...) (indirect via A when Callee() == "";
//	                 Mods()/Refs() are the call's summary side effects;
//	                 Site() is the heap tag for allocation intrinsics)
//
// The fields every opcode may use are inline. The rare call and
// memory-set data (Callee, Args, Mods, Refs, Site, Targets, Tags) live
// in one side record, an Aux, which is present exactly on Jsr, PLoad,
// PStore and function AddrOf; VerifyFuncAll enforces that. Reads go
// through nil-safe accessors, so an instruction without the record
// reads zero values. The record is copy-on-write: SetTags, SetEffects,
// SetTargets and SetSite install a fresh record instead of writing the
// shared one, so a shallow Instr copy behaves like a value copy. Args
// is the exception: its backing array is shared between shallow copies
// (ReplaceUses and MapUses rewrite it in place), and Clone copies it.
type Instr struct {
	Op Op
	// Synth marks compiler-synthesized spill code: the lifted loads
	// and demotion stores promotion inserts at region boundaries.
	// These deliberately sit outside the effect sets the analyses
	// computed (a demotion store legally writes a tag the region only
	// read), so the soundness sanitizer and the promotion-invariant
	// lint skip them.
	Synth bool
	// HasValue reports that Ret carries a value or that a Jsr's
	// result is used.
	HasValue bool

	Dst Reg
	A   Reg
	B   Reg

	// Tag is the single location named by a scalar memory op or
	// AddrOf.
	Tag TagID
	// Size is the access width in bytes (1, 4, or 8) of a memory op.
	Size int32

	// Imm is LoadI's constant, or LoadF's constant as
	// math.Float64bits.
	Imm int64

	aux *Aux
}

// Aux is an instruction's side record: the fields only calls, pointer
// memory ops and function addresses use. Build one into an instruction
// with WithAux; read it through Instr's accessors.
type Aux struct {
	Callee string
	Args   []Reg
	Mods   TagSet // locations the call may modify
	Refs   TagSet // locations the call may reference
	Site   TagID  // heap tag for allocation call sites

	// Targets, when non-nil on an indirect Jsr, is the refined set
	// of possible callees computed by points-to analysis; nil means
	// "any addressed function".
	Targets []string

	// Tags is the may-reference set of a pointer-based memory op.
	Tags TagSet
}

// WithAux returns in carrying a private copy of a as its side record.
func (in Instr) WithAux(a Aux) Instr {
	in.aux = &a
	return in
}

// Callee is the called (or addressed) function's name; "" for an
// indirect call.
func (in *Instr) Callee() string {
	if in.aux == nil {
		return ""
	}
	return in.aux.Callee
}

// Args are a call's argument registers. The slice is shared with any
// shallow copy of the instruction.
func (in *Instr) Args() []Reg {
	if in.aux == nil {
		return nil
	}
	return in.aux.Args
}

// Mods is the set of locations a call may modify.
func (in *Instr) Mods() TagSet {
	if in.aux == nil {
		return TagSet{}
	}
	return in.aux.Mods
}

// Refs is the set of locations a call may reference.
func (in *Instr) Refs() TagSet {
	if in.aux == nil {
		return TagSet{}
	}
	return in.aux.Refs
}

// Site is the heap tag of an allocation call site.
func (in *Instr) Site() TagID {
	if in.aux == nil {
		return 0
	}
	return in.aux.Site
}

// Targets is an indirect call's refined callee set (nil: any addressed
// function).
func (in *Instr) Targets() []string {
	if in.aux == nil {
		return nil
	}
	return in.aux.Targets
}

// Tags is the may-reference set of a pointer-based memory op.
func (in *Instr) Tags() TagSet {
	if in.aux == nil {
		return TagSet{}
	}
	return in.aux.Tags
}

// Float is LoadF's constant.
func (in *Instr) Float() float64 { return math.Float64frombits(uint64(in.Imm)) }

// FloatImm encodes f as LoadF's Imm.
func FloatImm(f float64) int64 { return int64(math.Float64bits(f)) }

// own returns a fresh copy of the side record for a copy-on-write
// update; the caller installs it after editing.
func (in *Instr) own() *Aux {
	if in.aux == nil {
		return &Aux{}
	}
	c := *in.aux
	return &c
}

// SetTags replaces the may-reference set of a pointer memory op.
func (in *Instr) SetTags(s TagSet) {
	a := in.own()
	a.Tags = s
	in.aux = a
}

// SetEffects replaces a call's MOD and REF sets.
func (in *Instr) SetEffects(mods, refs TagSet) {
	a := in.own()
	a.Mods, a.Refs = mods, refs
	in.aux = a
}

// SetTargets replaces an indirect call's refined callee set.
func (in *Instr) SetTargets(targets []string) {
	a := in.own()
	a.Targets = targets
	in.aux = a
}

// SetSite replaces an allocation call's heap tag.
func (in *Instr) SetSite(site TagID) {
	a := in.own()
	a.Site = site
	in.aux = a
}

// Uses appends the registers the instruction reads to buf and returns
// it. The result aliases buf's backing array.
func (in *Instr) Uses(buf []Reg) []Reg {
	switch in.Op {
	case OpNop, OpLoadI, OpLoadF, OpCLoad, OpSLoad, OpAddrOf, OpBr:
		// no register uses
	case OpRet:
		if in.HasValue && in.A != RegInvalid {
			buf = append(buf, in.A)
		}
	case OpJsr:
		if in.Callee() == "" && in.A != RegInvalid {
			buf = append(buf, in.A)
		}
		buf = append(buf, in.Args()...)
	case OpCopy, OpNeg, OpNot, OpFNeg, OpI2F, OpF2I, OpCBr, OpSStore, OpPLoad:
		buf = append(buf, in.A)
	case OpPStore:
		buf = append(buf, in.A, in.B)
	default:
		// binary arithmetic and comparisons
		buf = append(buf, in.A, in.B)
	}
	return buf
}

// Def returns the register the instruction defines, or RegInvalid.
func (in *Instr) Def() Reg {
	if !in.Op.HasDst() {
		return RegInvalid
	}
	if in.Op == OpJsr && !in.HasValue {
		return RegInvalid
	}
	return in.Dst
}

// ReplaceUses rewrites every use of register from to register to.
func (in *Instr) ReplaceUses(from, to Reg) {
	switch in.Op {
	case OpNop, OpLoadI, OpLoadF, OpCLoad, OpSLoad, OpAddrOf, OpBr:
		return
	case OpRet:
		if in.HasValue && in.A == from {
			in.A = to
		}
		return
	case OpJsr:
		if in.Callee() == "" && in.A == from {
			in.A = to
		}
		args := in.Args()
		for i, r := range args {
			if r == from {
				args[i] = to
			}
		}
		return
	case OpCopy, OpNeg, OpNot, OpFNeg, OpI2F, OpF2I, OpCBr, OpSStore, OpPLoad:
		if in.A == from {
			in.A = to
		}
		return
	case OpPStore:
		if in.A == from {
			in.A = to
		}
		if in.B == from {
			in.B = to
		}
		return
	default:
		if in.A == from {
			in.A = to
		}
		if in.B == from {
			in.B = to
		}
	}
}

// MapUses rewrites every use operand through f, positionally — unlike
// ReplaceUses it is safe when the new names overlap the old ones
// (register renaming after coloring).
func (in *Instr) MapUses(f func(Reg) Reg) {
	switch in.Op {
	case OpNop, OpLoadI, OpLoadF, OpCLoad, OpSLoad, OpAddrOf, OpBr:
		return
	case OpRet:
		if in.HasValue && in.A != RegInvalid {
			in.A = f(in.A)
		}
	case OpJsr:
		if in.Callee() == "" && in.A != RegInvalid {
			in.A = f(in.A)
		}
		args := in.Args()
		for i, r := range args {
			args[i] = f(r)
		}
	case OpCopy, OpNeg, OpNot, OpFNeg, OpI2F, OpF2I, OpCBr, OpSStore, OpPLoad:
		in.A = f(in.A)
	case OpPStore:
		in.A = f(in.A)
		in.B = f(in.B)
	default:
		in.A = f(in.A)
		in.B = f(in.B)
	}
}

// MayReadMem returns the tag set an instruction may read, or an empty
// set. Calls read their Refs set.
func (in *Instr) MayReadMem() TagSet {
	switch in.Op {
	case OpCLoad, OpSLoad:
		return NewTagSet(in.Tag)
	case OpPLoad:
		return in.Tags()
	case OpJsr:
		return in.Refs()
	}
	return TagSet{}
}

// MayWriteMem returns the tag set an instruction may write, or an
// empty set. Calls write their Mods set.
func (in *Instr) MayWriteMem() TagSet {
	switch in.Op {
	case OpSStore:
		return NewTagSet(in.Tag)
	case OpPStore:
		return in.Tags()
	case OpJsr:
		return in.Mods()
	}
	return TagSet{}
}

// Clone returns a deep copy of the instruction: the side record and
// its Args and Targets are copied; TagSets are immutable and shared.
func (in *Instr) Clone() Instr {
	out := *in
	if in.aux != nil {
		a := *in.aux
		if a.Args != nil {
			a.Args = append([]Reg(nil), a.Args...)
		}
		if a.Targets != nil {
			a.Targets = append([]string(nil), a.Targets...)
		}
		out.aux = &a
	}
	return out
}
