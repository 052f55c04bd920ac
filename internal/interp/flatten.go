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
//   - Profiling hooks compile to explicit block-entry markers, emitted
//     only when the profile build is requested — a zero-profiling
//     program pays nothing for the instrumentation.
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
	fBlock  // profiling block-entry marker, blockRef index in imm
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
)

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
	// lists, intrinsic names, and Trace callbacks.
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

// blockRef names a basic block for profiling markers.
type blockRef struct {
	fn *ir.Func
	b  *ir.Block
}

// Program is a module lowered to flat code, ready to execute. A
// Program is immutable after Flatten and safe to share across
// sequential runs; each Run builds fresh machine state.
type Program struct {
	mod      *ir.Module
	code     []flatInstr
	funcs    []flatFunc
	mainIdx  int // index into funcs, -1 when the module has no main
	errs     []string
	blocks   []blockRef
	profiled bool
	// img is the module's load image, computed once at lowering time;
	// every Run copies its initialized globals instead of re-walking
	// the tag table and initializers.
	img *execImage
}

// Mod returns the module the program was lowered from.
func (p *Program) Mod() *ir.Module { return p.mod }

// Len returns the number of flat instructions (profiling markers
// included).
func (p *Program) Len() int { return len(p.code) }

// Profiled reports whether block-entry profiling markers were
// compiled in.
func (p *Program) Profiled() bool { return p.profiled }

// Flatten lowers mod into a flat program. When profile is set,
// block-entry markers are compiled in so executions can attribute
// instruction counts to basic blocks; without it the lowered code
// carries no instrumentation at all.
func Flatten(mod *ir.Module, profile bool) *Program {
	p := &Program{mod: mod, mainIdx: -1, profiled: profile, img: buildImage(mod)}
	gaddrs := p.img.globalAddr
	fidx := make(map[string]int, len(mod.FuncOrder))
	for i, name := range mod.FuncOrder {
		fidx[name] = i
	}
	p.funcs = make([]flatFunc, len(mod.FuncOrder))
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
		p.flattenFunc(fn, layout, gaddrs, fidx, profile)
	}
	return p
}

// flattenFunc lowers one function and patches its branch targets.
func (p *Program) flattenFunc(fn *ir.Func, layout *frameLayout, gaddrs map[ir.TagID]int64, fidx map[string]int, profile bool) {
	blockPC := make(map[*ir.Block]int, len(fn.Blocks))
	const (
		patchImm = iota // taken / unconditional target
		patchB          // fCBr false edge
		patchC          // fused compare-and-branch fall-through
	)
	type patch struct {
		at     int
		target *ir.Block
		field  uint8
	}
	var patches []patch

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

	for _, b := range fn.Blocks {
		blockPC[b] = len(p.code)
		if profile {
			p.code = append(p.code, flatInstr{op: fBlock, imm: int64(len(p.blocks)), tag: ir.TagInvalid})
			p.blocks = append(p.blocks, blockRef{fn, b})
		}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			fi := flatInstr{dst: int32(in.Dst), a: int32(in.A), b: int32(in.B), tag: ir.TagInvalid, src: in}
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
				// this access's address (same-block adjacency pinned by
				// the src identity check, as for compare-and-branch).
				if j > 0 {
					prev := &p.code[len(p.code)-1]
					if prev.op == fAdd && prev.dst == fi.a && prev.src == &b.Instrs[j-1] {
						prev.op, prev.c = fAddPLoad, prev.dst
						prev.dst, prev.sz, prev.src = int32(in.Dst), uint8(in.Size), in
						continue
					}
				}
				fi.op, fi.sz = fPLoad, uint8(in.Size)
			case ir.OpPStore:
				if j > 0 {
					prev := &p.code[len(p.code)-1]
					if prev.op == fAdd && prev.dst == fi.a && prev.src == &b.Instrs[j-1] {
						prev.op, prev.c = fAddPStore, prev.dst
						prev.dst, prev.sz, prev.src = int32(in.B), uint8(in.Size), in
						continue
					}
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
				// this branch. The src identity check pins the previous
				// flat instruction to b.Instrs[j-1], so the pair is
				// known to be adjacent within this block — nothing can
				// branch between them.
				if j > 0 {
					prev := &p.code[len(p.code)-1]
					if int(prev.op) < len(fuseCmpBr) && fuseCmpBr[prev.op] != fNop &&
						prev.dst == fi.a && prev.src == &b.Instrs[j-1] {
						prev.op = fuseCmpBr[prev.op]
						prev.imm, prev.c = -1, -1
						patches = append(patches, patch{at: len(p.code) - 1, target: b.Succs[0]})
						patches = append(patches, patch{at: len(p.code) - 1, target: b.Succs[1], field: patchC})
						continue
					}
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
				if int(in.Op) < len(aluOp) && aluOp[in.Op] != fNop {
					fi.op = aluOp[in.Op]
					break
				}
				p.emitErr(in, fmt.Sprintf("unimplemented opcode %s", in.Op))
				continue
			}
			p.code = append(p.code, fi)
		}
		if b.Terminator() == nil {
			p.emitErr(nil, fmt.Sprintf("block %s fell off the end", b.Label))
		}
	}

	for _, pt := range patches {
		pc, ok := blockPC[pt.target]
		if !ok {
			// A successor outside fn.Blocks would be a malformed CFG;
			// the verifier rejects it long before execution. Guard
			// anyway so a stray edge faults instead of jumping wild.
			pc = -1
		}
		switch pt.field {
		case patchB:
			p.code[pt.at].b = int32(pc)
		case patchC:
			p.code[pt.at].c = int32(pc)
		default:
			p.code[pt.at].imm = int64(pc)
		}
	}
}

// emitErr appends a deferred-fault instruction carrying msg.
func (p *Program) emitErr(src *ir.Instr, msg string) {
	p.code = append(p.code, flatInstr{op: fErr, imm: int64(len(p.errs)), tag: ir.TagInvalid, src: src})
	p.errs = append(p.errs, msg)
}
