package interp

import (
	"fmt"

	"regpromo/internal/ir"
)

// This file is the flat-code compiler: it lowers an ir.Module into a
// single contiguous instruction array with every operand pre-resolved,
// so the dispatch loop (flatexec.go) never chases a block pointer,
// hashes a map, or re-derives an address it could have computed once.
//
//   - Branch targets become instruction indices into the flat array.
//   - Call targets become indices into a function table resolved at
//     lowering time (intrinsics and indirect calls are marked and
//     resolved by the dispatcher).
//   - Scalar memory operations carry their absolute global address or
//     frame offset, plus the access width, in the instruction itself;
//     frame layouts are computed once per function, not per call.
//   - loadF immediates are pre-converted to their bit patterns, and
//     addrOf of a global or function folds to a constant load.
//   - Hot adjacent pairs become superinstructions (see the fused
//     opcodes below), and an unconditional branch to a block that opens
//     with a fused compare-and-branch takes that test over itself.
//
// The flat code carries no instrumentation: profiling, sanitizing and
// pointer tracing run on the switch engine (Program.Run reroutes
// them), so the dispatch loop never tests for a hook.
//
// Lowering never fails: an instruction the flat engine cannot execute
// (an unaddressable tag, a missing frame slot, a block without a
// terminator) compiles to an fErr that faults with the reference
// engine's exact error message if — and only if — it is reached.

// flatOp is a flat-code opcode.
type flatOp uint8

const (
	fNop   flatOp = iota
	fLoadI        // dst ← imm (constants, float bits, global/function addresses)
	fCopy         // dst ← a
	fAdd
	fSub
	fMul
	fDiv
	fRem
	fNeg
	fAnd
	fOr
	fXor
	fNot
	fShl
	fShr
	fCmpEQ
	fCmpNE
	fCmpLT
	fCmpLE
	fCmpGT
	fCmpGE
	fFAdd
	fFSub
	fFMul
	fFDiv
	fFNeg
	fFCmpEQ
	fFCmpNE
	fFCmpLT
	fFCmpLE
	fFCmpGT
	fFCmpGE
	fI2F
	fF2I
	fLoadG  // dst ← mem[imm] (absolute global address), width sz
	fLoadL  // dst ← mem[frame+imm], width sz
	fStoreG // mem[imm] ← a, width sz
	fStoreL // mem[frame+imm] ← a, width sz
	fAddrL  // dst ← frame + imm
	fPLoad  // dst ← mem[regs[a]], width sz
	fPStore // mem[regs[a]] ← regs[b], width sz
	fBr     // pc ← imm
	fCBr    // pc ← imm when regs[a] != 0, else b
	fRet    // return regs[a] (a < 0 returns 0)
	fCall   // imm ≥ 0: p.funcs[imm]; callIndirect/callIntrinsic otherwise
	fErr    // deferred lowering fault, message index in imm

	// Fused compare-and-branch superinstructions: a fCmpXX/fFCmpXX
	// immediately followed in the same block by a fCBr testing its
	// result collapses into one dispatch. The compare register is
	// still written and the pair still counts as two ops, so dynamic
	// behaviour is bit-identical to the unfused sequence — only the
	// dispatch count drops. dst/a/b are the compare's operands; imm
	// is the taken target, c the fall-through.
	fJEQ
	fJNE
	fJLT
	fJLE
	fJGT
	fJGE
	fJFEQ
	fJFNE
	fJFLT
	fJFLE
	fJFGT
	fJFGE

	// Fused address-compute-and-access superinstructions: an fAdd
	// whose result immediately feeds a pointer access collapses the
	// same way. The sum is still written to the add's destination
	// (register c) and the pair still counts as two ops.
	fAddPLoad  // c ← a+b; dst ← mem[c], width sz
	fAddPStore // c ← a+b; mem[c] ← dst, width sz

	// Threaded branches: an fBr whose target block opens with a fused
	// compare-and-branch becomes a copy of that instruction, so the
	// jump and the test share one dispatch. The copy counts the br as
	// a leading op with its own budget check, then runs the fused
	// pair exactly as at the target: three ops, three checks.
	fBrJEQ
	fBrJNE
	fBrJLT
	fBrJLE
	fBrJGT
	fBrJGE
	fBrJFEQ
	fBrJFNE
	fBrJFLT
	fBrJFLE
	fBrJFGT
	fBrJFGE

	// Folded immediates: an fLoadI immediately followed in the same
	// block by an fAnd/fAdd/fMul reading its register collapses into
	// one dispatch. The constant is still written to its register c
	// and the pair still counts as two ops; a is the other operand
	// (c itself when the constant feeds both sides).
	fAndI // c ← imm; dst ← a & imm
	fAddI // c ← imm; dst ← a + imm
	fMulI // c ← imm; dst ← a * imm
)

// threadBr maps a fused compare-and-branch opcode to its threaded
// form; opcodes absent from the table (fNop zero value) do not thread.
var threadBr = [...]flatOp{
	fJEQ:  fBrJEQ,
	fJNE:  fBrJNE,
	fJLT:  fBrJLT,
	fJLE:  fBrJLE,
	fJGT:  fBrJGT,
	fJGE:  fBrJGE,
	fJFEQ: fBrJFEQ,
	fJFNE: fBrJFNE,
	fJFLT: fBrJFLT,
	fJFLE: fBrJFLE,
	fJFGT: fBrJFGT,
	fJFGE: fBrJFGE,
}

// foldImm maps an ALU opcode to its folded-immediate form; opcodes
// absent from the table (fNop zero value) do not fold.
var foldImm = [...]flatOp{
	fAnd: fAndI,
	fAdd: fAddI,
	fMul: fMulI,
}

// fuseCmpBr maps a compare opcode to its fused compare-and-branch
// form; opcodes absent from the table (fNop zero value) do not fuse.
var fuseCmpBr = [...]flatOp{
	fCmpEQ:  fJEQ,
	fCmpNE:  fJNE,
	fCmpLT:  fJLT,
	fCmpLE:  fJLE,
	fCmpGT:  fJGT,
	fCmpGE:  fJGE,
	fFCmpEQ: fJFEQ,
	fFCmpNE: fJFNE,
	fFCmpLT: fJFLT,
	fFCmpLE: fJFLE,
	fFCmpGT: fJFGT,
	fFCmpGE: fJFGE,
}

// fCall sentinels for the imm field.
const (
	callIndirect  int64 = -1 // target address in regs[a]
	callIntrinsic int64 = -2 // named runtime intrinsic, name in src.Callee
)

// aluOp maps the simple dst ← a op b (and unary) opcodes 1:1.
var aluOp = [...]flatOp{
	ir.OpCopy:   fCopy,
	ir.OpAdd:    fAdd,
	ir.OpSub:    fSub,
	ir.OpMul:    fMul,
	ir.OpDiv:    fDiv,
	ir.OpRem:    fRem,
	ir.OpNeg:    fNeg,
	ir.OpAnd:    fAnd,
	ir.OpOr:     fOr,
	ir.OpXor:    fXor,
	ir.OpNot:    fNot,
	ir.OpShl:    fShl,
	ir.OpShr:    fShr,
	ir.OpCmpEQ:  fCmpEQ,
	ir.OpCmpNE:  fCmpNE,
	ir.OpCmpLT:  fCmpLT,
	ir.OpCmpLE:  fCmpLE,
	ir.OpCmpGT:  fCmpGT,
	ir.OpCmpGE:  fCmpGE,
	ir.OpFAdd:   fFAdd,
	ir.OpFSub:   fFSub,
	ir.OpFMul:   fFMul,
	ir.OpFDiv:   fFDiv,
	ir.OpFNeg:   fFNeg,
	ir.OpFCmpEQ: fFCmpEQ,
	ir.OpFCmpNE: fFCmpNE,
	ir.OpFCmpLT: fFCmpLT,
	ir.OpFCmpLE: fFCmpLE,
	ir.OpFCmpGT: fFCmpGT,
	ir.OpFCmpGE: fFCmpGE,
	ir.OpI2F:    fI2F,
	ir.OpF2I:    fF2I,
}

// flatInstr is one flat-code instruction. Operands are pre-resolved:
// imm doubles as immediate value, absolute address, frame offset,
// branch target, or call index depending on op.
type flatInstr struct {
	op  flatOp
	sz  uint8 // access width of memory ops
	dst int32
	a   int32
	b   int32
	imm int64
	// tag attributes scalar memory traffic to its location when
	// profiling; TagInvalid otherwise.
	tag ir.TagID
	// c is the fall-through target of a fused compare-and-branch; it
	// occupies what would otherwise be struct padding.
	c int32
	// src points at the lowered IL instruction, for call argument
	// lists and intrinsic names.
	src *ir.Instr
}

// flatFunc is one function's entry in the flat program.
type flatFunc struct {
	src       *ir.Func
	entry     int // pc of the function's first instruction
	frameSize int64
	needsZero bool
	numRegs   int
}

// Program is a module lowered to flat code, ready to execute. A
// Program is immutable after Flatten and safe to share across
// sequential runs; each Run builds fresh machine state.
type Program struct {
	mod     *ir.Module
	code    []flatInstr
	funcs   []flatFunc
	mainIdx int // index into funcs, -1 when the module has no main
	errs    []string
	// img is the module's load image, computed once at lowering time;
	// every Run copies its initialized globals instead of re-walking
	// the tag table and initializers.
	img *execImage
}

// Mod returns the module the program was lowered from.
func (p *Program) Mod() *ir.Module { return p.mod }

// Len returns the number of flat instructions.
func (p *Program) Len() int { return len(p.code) }

// Flatten lowers mod into a flat program. The profile argument is
// ignored: the flat code never carries instrumentation, and a profiled
// Run executes on the switch engine instead.
func Flatten(mod *ir.Module, profile bool) *Program {
	p := &Program{mod: mod, mainIdx: -1, img: buildImage(mod)}
	gaddrs := p.img.globalAddr
	fidx := make(map[string]int, len(mod.FuncOrder))
	n := 0
	for i, name := range mod.FuncOrder {
		fidx[name] = i
		for _, b := range mod.Funcs[name].Blocks {
			n += len(b.Instrs)
		}
	}
	// Fusion only shrinks the code, so one instruction per IL
	// instruction is an upper bound short of deferred faults for
	// blocks without a terminator.
	p.code = make([]flatInstr, 0, n)
	p.funcs = make([]flatFunc, len(mod.FuncOrder))
	var fl flattener
	for i, name := range mod.FuncOrder {
		fn := mod.Funcs[name]
		if name == "main" {
			p.mainIdx = i
		}
		layout := computeLayout(mod, fn)
		p.funcs[i] = flatFunc{
			src:       fn,
			entry:     len(p.code),
			frameSize: layout.size,
			needsZero: layout.needsZero,
			numRegs:   fn.NumRegs,
		}
		fl.flattenFunc(p, fn, layout, gaddrs, fidx)
	}
	return p
}

// Branch-target patch fields.
const (
	patchImm = iota // taken / unconditional target
	patchB          // fCBr false edge
	patchC          // fused compare-and-branch fall-through
)

// patch records a branch target to resolve once every block of the
// function has its pc.
type patch struct {
	at     int
	target *ir.Block
	field  uint8
}

// flattener holds the per-function scratch tables of a Flatten call,
// reused from one function to the next.
type flattener struct {
	blockPC []int32 // first pc of each block, by position (= block ID)
	patches []patch
}

// flattenFunc lowers one function into p, patches its branch targets,
// and threads its unconditional branches.
func (fl *flattener) flattenFunc(p *Program, fn *ir.Func, layout *frameLayout, gaddrs map[ir.TagID]int64, fidx map[string]int) {
	start := len(p.code)
	if cap(fl.blockPC) < len(fn.Blocks) {
		fl.blockPC = make([]int32, len(fn.Blocks))
	}
	blockPC := fl.blockPC[:len(fn.Blocks)]
	patches := fl.patches[:0]

	// emitAddr lowers a scalar access of tag into (op-variant, imm):
	// globals pre-resolve to absolute addresses, locals and spill
	// slots to frame offsets. Failures defer to runtime faults with
	// the reference engine's message.
	emitAddr := func(in *ir.Instr, global, local flatOp) (flatOp, int64, bool) {
		tag := p.mod.Tags.Get(in.Tag)
		switch tag.Kind {
		case ir.TagGlobal:
			return global, gaddrs[in.Tag], true
		case ir.TagLocal, ir.TagSpill:
			off, ok := layout.offsets[in.Tag]
			if !ok {
				p.emitErr(in, fmt.Sprintf("tag %s has no frame slot", tag.Name))
				return 0, 0, false
			}
			return local, off, true
		}
		p.emitErr(in, fmt.Sprintf("cannot address tag %s", tag.Name))
		return 0, 0, false
	}

	for bi, b := range fn.Blocks {
		blockPC[bi] = int32(len(p.code))
		for j := range b.Instrs {
			in := &b.Instrs[j]
			fi := flatInstr{dst: int32(in.Dst), a: int32(in.A), b: int32(in.B), tag: ir.TagInvalid, src: in}
			// prev is the flat instruction lowered from b.Instrs[j-1],
			// or nil. The src identity check pins the pair as adjacent
			// within this block, so nothing can branch between them:
			// every fusion below requires it.
			var prev *flatInstr
			if j > 0 && p.code[len(p.code)-1].src == &b.Instrs[j-1] {
				prev = &p.code[len(p.code)-1]
			}
			switch in.Op {
			case ir.OpNop:
				fi.op = fNop

			case ir.OpLoadI, ir.OpLoadF:
				fi.op, fi.imm = fLoadI, in.Imm

			case ir.OpCLoad, ir.OpSLoad:
				op, imm, ok := emitAddr(in, fLoadG, fLoadL)
				if !ok {
					continue
				}
				fi.op, fi.imm, fi.sz, fi.tag = op, imm, uint8(in.Size), in.Tag
			case ir.OpSStore:
				op, imm, ok := emitAddr(in, fStoreG, fStoreL)
				if !ok {
					continue
				}
				fi.op, fi.imm, fi.sz, fi.tag = op, imm, uint8(in.Size), in.Tag
			case ir.OpPLoad:
				// Fuse with an immediately preceding add that computes
				// this access's address.
				if prev != nil && prev.op == fAdd && prev.dst == fi.a {
					prev.op, prev.c = fAddPLoad, prev.dst
					prev.dst, prev.sz, prev.src = int32(in.Dst), uint8(in.Size), in
					continue
				}
				fi.op, fi.sz = fPLoad, uint8(in.Size)
			case ir.OpPStore:
				if prev != nil && prev.op == fAdd && prev.dst == fi.a {
					prev.op, prev.c = fAddPStore, prev.dst
					prev.dst, prev.sz, prev.src = int32(in.B), uint8(in.Size), in
					continue
				}
				fi.op, fi.sz = fPStore, uint8(in.Size)

			case ir.OpAddrOf:
				if in.Callee() != "" {
					idx, ok := fidx[in.Callee()]
					if !ok {
						p.emitErr(in, "address of undefined function "+in.Callee())
						continue
					}
					fi.op, fi.imm = fLoadI, funcBase+int64(idx)
					break
				}
				op, imm, ok := emitAddr(in, fLoadI, fAddrL)
				if !ok {
					continue
				}
				fi.op, fi.imm = op, imm

			case ir.OpBr:
				fi.op, fi.imm = fBr, -1
				patches = append(patches, patch{at: len(p.code), target: b.Succs[0]})
			case ir.OpCBr:
				// Fuse with an immediately preceding compare that feeds
				// this branch.
				if prev != nil && int(prev.op) < len(fuseCmpBr) && fuseCmpBr[prev.op] != fNop && prev.dst == fi.a {
					prev.op = fuseCmpBr[prev.op]
					prev.imm, prev.c = -1, -1
					patches = append(patches, patch{at: len(p.code) - 1, target: b.Succs[0]})
					patches = append(patches, patch{at: len(p.code) - 1, target: b.Succs[1], field: patchC})
					continue
				}
				fi.op, fi.imm, fi.b = fCBr, -1, -1
				patches = append(patches, patch{at: len(p.code), target: b.Succs[0]})
				patches = append(patches, patch{at: len(p.code), target: b.Succs[1], field: patchB})
			case ir.OpRet:
				fi.op = fRet
				if !in.HasValue {
					fi.a = -1
				}

			case ir.OpJsr:
				fi.op = fCall
				if !in.HasValue || in.Dst == ir.RegInvalid {
					fi.dst = -1
				}
				switch {
				case in.Callee() == "":
					fi.imm = callIndirect
				default:
					if idx, ok := fidx[in.Callee()]; ok {
						fi.imm = int64(idx)
					} else {
						fi.imm = callIntrinsic
					}
				}

			default:
				if int(in.Op) >= len(aluOp) || aluOp[in.Op] == fNop {
					p.emitErr(in, fmt.Sprintf("unimplemented opcode %s", in.Op))
					continue
				}
				fi.op = aluOp[in.Op]
				// Fold an immediately preceding constant load that feeds
				// this op, keeping its register write.
				if prev != nil && prev.op == fLoadI && int(fi.op) < len(foldImm) && foldImm[fi.op] != fNop &&
					(prev.dst == fi.a || prev.dst == fi.b) {
					other := fi.a
					if other == prev.dst {
						other = fi.b
					}
					prev.op, prev.c = foldImm[fi.op], prev.dst
					prev.dst, prev.a, prev.src = fi.dst, other, in
					continue
				}
			}
			p.code = append(p.code, fi)
		}
		if b.Terminator() == nil {
			p.emitErr(nil, fmt.Sprintf("block %s fell off the end", b.Label))
		}
	}

	for _, pt := range patches {
		// A successor outside fn.Blocks would be a malformed CFG; the
		// verifier rejects it long before execution. Guard anyway so a
		// stray edge faults instead of jumping wild.
		pc := int32(-1)
		if i := fn.BlockIndex(pt.target); i >= 0 {
			pc = blockPC[i]
		}
		switch pt.field {
		case patchB:
			p.code[pt.at].b = pc
		case patchC:
			p.code[pt.at].c = pc
		default:
			p.code[pt.at].imm = int64(pc)
		}
	}
	fl.patches = patches

	// Thread each unconditional branch into a target that opens with a
	// fused compare-and-branch. The copy keeps the target's operands
	// and both successors, so the jump lands past the test.
	for pc := start; pc < len(p.code); pc++ {
		in := &p.code[pc]
		if in.op != fBr || in.imm < 0 {
			continue
		}
		t := p.code[in.imm]
		if int(t.op) < len(threadBr) && threadBr[t.op] != fNop {
			t.op = threadBr[t.op]
			*in = t
		}
	}
}

// emitErr appends a deferred-fault instruction carrying msg.
func (p *Program) emitErr(src *ir.Instr, msg string) {
	p.code = append(p.code, flatInstr{op: fErr, imm: int64(len(p.errs)), tag: ir.TagInvalid, src: src})
	p.errs = append(p.errs, msg)
}
