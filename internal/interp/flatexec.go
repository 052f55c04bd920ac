package interp

import (
	"encoding/binary"
	"fmt"
	"math"

	"regpromo/internal/ir"
)

// This file is the flat-code dispatch engine. Each activation runs a
// loop whose hot state (program counter, step counter, register file)
// stays in locals, so each instruction is a single indexed load, a
// bump, and a dense switch. The current function, frame, and register
// file are loop-invariant — calls recurse into a fresh runFlat rather
// than swapping them in place, which keeps the loop's live set small
// enough to stay in machine registers. Register files are sliced out
// of a per-machine arena and the frame is a value on the Go stack, so
// steady-state calls allocate nothing.
//
// The engine is a plain counted executor: it carries no profiling,
// sanitizing or tracing hooks. Run hands any execution that asks for
// them to the switch engine (exec.go), which is behaviour-identical —
// same counts, same outputs, same error strings — and which
// internal/difftest and the engines differential test hold the flat
// engine to, byte for byte.

// Run executes the program's main function. A hooked execution
// (Options.Hooked), or one that asks for EngineSwitch, runs on the
// switch engine over the program's module, loaded from the program's
// image; the Result is the same either way.
func (p *Program) Run(opts Options) (*Result, error) {
	if opts.Engine == EngineSwitch || opts.Hooked() {
		return runSwitch(p.mod, opts, p.img)
	}
	if p.mainIdx < 0 {
		return nil, &Error{Func: "main", Msg: "no main function"}
	}
	m := newMachineImage(p.mod, opts, p.img)
	regs := m.allocRegs(p.funcs[p.mainIdx].numRegs)
	exit, err := m.runFlat(p, p.mainIdx, regs)
	if err != nil {
		return nil, err
	}
	return m.result(exit), nil
}

// allocRegs slices a zeroed n-register file out of the arena.
func (m *machine) allocRegs(n int) []int64 {
	if m.regTop+n > len(m.regArena) {
		size := 2 * len(m.regArena)
		if size < m.regTop+n {
			size = m.regTop + n
		}
		if size < 256 {
			size = 256
		}
		// Frames still holding slices of the old array keep using it;
		// the arena only hands out disjoint index ranges, so the swap
		// is invisible to them.
		m.regArena = make([]int64, size)
	}
	regs := m.regArena[m.regTop : m.regTop+n]
	m.regTop += n
	clear(regs)
	return regs
}

// stepLimit is the error of a run that exhausts its step budget.
func stepLimit(fn *ir.Func) error {
	return &Error{Func: fn.Name, Msg: "step limit exceeded (infinite loop?)"}
}

// runFlat executes one function activation. regs must have been
// handed out by allocRegs with the parameter registers already
// filled in.
//
// The loop keeps its state lean on purpose: one local step counter
// (ops and steps advance in lockstep, so a single counter serves as
// both, settled into m.counts.Ops/m.steps only at call boundaries
// and on successful return — error exits leave them stale because
// nothing reads counts after a failed run), and hoisted
// loop-invariant fields (the global and stack regions). Every extra
// live variable here costs real dispatch throughput in spills.
func (m *machine) runFlat(p *Program, fi int, regs []int64) (ret int64, err error) {
	ff := &p.funcs[fi]
	fn := ff.src
	if m.sp+ff.frameSize > stackBase+stackSize {
		m.regTop -= ff.numRegs
		return 0, &Error{Func: fn.Name, Msg: "stack overflow"}
	}
	m.ensureStack(m.sp + ff.frameSize - stackBase)
	// The frame holds the activation's base address and names it in
	// the slow paths' fault messages; nothing keeps it past the return.
	f := frame{fn: fn, base: m.sp}
	if ff.needsZero {
		lo := f.base - stackBase
		clear(m.stack[lo : lo+ff.frameSize])
	}
	m.sp += ff.frameSize

	code := p.code
	pc := ff.entry
	var steps int64
	budget := m.max - m.steps
	globals := m.globals
	// stk tracks m.stack; it is refreshed after every call, the only
	// point where ensureStack can move the backing array.
	stk := m.stack

	for {
		in := &code[pc]
		pc++
		steps++
		if steps > budget {
			return 0, stepLimit(fn)
		}

		switch in.op {
		case fNop:
			// no effect

		case fLoadI:
			regs[in.dst] = in.imm
		case fCopy:
			m.counts.Copies++
			regs[in.dst] = regs[in.a]

		case fAdd:
			regs[in.dst] = regs[in.a] + regs[in.b]
		case fSub:
			regs[in.dst] = regs[in.a] - regs[in.b]
		case fMul:
			regs[in.dst] = regs[in.a] * regs[in.b]
		case fDiv:
			if regs[in.b] == 0 {
				return 0, &Error{Func: fn.Name, Msg: "integer division by zero"}
			}
			regs[in.dst] = regs[in.a] / regs[in.b]
		case fRem:
			if regs[in.b] == 0 {
				return 0, &Error{Func: fn.Name, Msg: "integer remainder by zero"}
			}
			regs[in.dst] = regs[in.a] % regs[in.b]
		case fNeg:
			regs[in.dst] = -regs[in.a]
		case fAnd:
			regs[in.dst] = regs[in.a] & regs[in.b]
		case fOr:
			regs[in.dst] = regs[in.a] | regs[in.b]
		case fXor:
			regs[in.dst] = regs[in.a] ^ regs[in.b]
		case fNot:
			regs[in.dst] = ^regs[in.a]
		case fShl:
			regs[in.dst] = regs[in.a] << (uint64(regs[in.b]) & 63)
		case fShr:
			regs[in.dst] = regs[in.a] >> (uint64(regs[in.b]) & 63)

		case fCmpEQ:
			regs[in.dst] = b2i(regs[in.a] == regs[in.b])
		case fCmpNE:
			regs[in.dst] = b2i(regs[in.a] != regs[in.b])
		case fCmpLT:
			regs[in.dst] = b2i(regs[in.a] < regs[in.b])
		case fCmpLE:
			regs[in.dst] = b2i(regs[in.a] <= regs[in.b])
		case fCmpGT:
			regs[in.dst] = b2i(regs[in.a] > regs[in.b])
		case fCmpGE:
			regs[in.dst] = b2i(regs[in.a] >= regs[in.b])

		case fFAdd:
			regs[in.dst] = fbits(fval(regs[in.a]) + fval(regs[in.b]))
		case fFSub:
			regs[in.dst] = fbits(fval(regs[in.a]) - fval(regs[in.b]))
		case fFMul:
			regs[in.dst] = fbits(fval(regs[in.a]) * fval(regs[in.b]))
		case fFDiv:
			regs[in.dst] = fbits(fval(regs[in.a]) / fval(regs[in.b]))
		case fFNeg:
			regs[in.dst] = fbits(-fval(regs[in.a]))

		case fFCmpEQ:
			regs[in.dst] = b2i(fval(regs[in.a]) == fval(regs[in.b]))
		case fFCmpNE:
			regs[in.dst] = b2i(fval(regs[in.a]) != fval(regs[in.b]))
		case fFCmpLT:
			regs[in.dst] = b2i(fval(regs[in.a]) < fval(regs[in.b]))
		case fFCmpLE:
			regs[in.dst] = b2i(fval(regs[in.a]) <= fval(regs[in.b]))
		case fFCmpGT:
			regs[in.dst] = b2i(fval(regs[in.a]) > fval(regs[in.b]))
		case fFCmpGE:
			regs[in.dst] = b2i(fval(regs[in.a]) >= fval(regs[in.b]))

		case fI2F:
			regs[in.dst] = fbits(float64(regs[in.a]))
		case fF2I:
			regs[in.dst] = int64(fval(regs[in.a]))

		// Folded immediates: the constant load writes its register and
		// counts first, with the same mid-pair budget check as the
		// other fused pairs, then the ALU half runs against the
		// immediate.
		case fAndI:
			regs[in.c] = in.imm
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			regs[in.dst] = regs[in.a] & in.imm
		case fAddI:
			regs[in.c] = in.imm
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			regs[in.dst] = regs[in.a] + in.imm
		case fMulI:
			regs[in.c] = in.imm
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			regs[in.dst] = regs[in.a] * in.imm

		// Memory operations resolve their region inline: scalar ops
		// know it statically (fLoadG/fStoreG are always global,
		// fLoadL/fStoreL always stack), pointer ops pick it with two
		// compares. The fast paths bound-check against exactly the
		// byte ranges mem() accepts, and anything they reject falls
		// back to loadMem/storeMem so faults keep the reference
		// engine's error text.
		case fLoadG:
			m.counts.Loads++
			v, ok := loadFast(globals, in.imm-globalBase, in.sz)
			if !ok {
				var lerr error
				if v, lerr = m.loadMem(&f, in.imm, int(in.sz)); lerr != nil {
					return 0, lerr
				}
			}
			regs[in.dst] = v
		case fLoadL:
			m.counts.Loads++
			v, ok := loadFast(stk, f.base+in.imm-stackBase, in.sz)
			if !ok {
				var lerr error
				if v, lerr = m.loadMem(&f, f.base+in.imm, int(in.sz)); lerr != nil {
					return 0, lerr
				}
			}
			regs[in.dst] = v
		case fStoreG:
			m.counts.Stores++
			if !storeFast(globals, in.imm-globalBase, in.sz, regs[in.a]) {
				if serr := m.storeMem(&f, in.imm, int(in.sz), regs[in.a]); serr != nil {
					return 0, serr
				}
			}
		case fStoreL:
			m.counts.Stores++
			if !storeFast(stk, f.base+in.imm-stackBase, in.sz, regs[in.a]) {
				if serr := m.storeMem(&f, f.base+in.imm, int(in.sz), regs[in.a]); serr != nil {
					return 0, serr
				}
			}
		case fAddrL:
			regs[in.dst] = f.base + in.imm

		case fPLoad:
			m.counts.Loads++
			addr := regs[in.a]
			var v int64
			var ok bool
			// Regions in descending base order; a miss (gap between
			// regions, past a region's committed end, null page) falls
			// through with ok=false. The heap is sliced to heapTop so
			// over-allocated capacity stays unaddressable, as in mem().
			switch {
			case addr >= heapBase:
				v, ok = loadFast(m.heap[:m.heapTop-heapBase], addr-heapBase, in.sz)
			case addr >= stackBase:
				v, ok = loadFast(stk, addr-stackBase, in.sz)
			case addr >= globalBase:
				v, ok = loadFast(globals, addr-globalBase, in.sz)
			}
			if !ok {
				var lerr error
				if v, lerr = m.loadMem(&f, addr, int(in.sz)); lerr != nil {
					return 0, lerr
				}
			}
			regs[in.dst] = v
		case fPStore:
			m.counts.Stores++
			addr := regs[in.a]
			var ok bool
			switch {
			case addr >= heapBase:
				ok = storeFast(m.heap[:m.heapTop-heapBase], addr-heapBase, in.sz, regs[in.b])
			case addr >= stackBase:
				ok = storeFast(stk, addr-stackBase, in.sz, regs[in.b])
			case addr >= globalBase:
				ok = storeFast(globals, addr-globalBase, in.sz, regs[in.b])
			}
			if !ok {
				if serr := m.storeMem(&f, addr, int(in.sz), regs[in.b]); serr != nil {
					return 0, serr
				}
			}

		case fBr:
			pc = int(in.imm)
		case fCBr:
			if regs[in.a] != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.b)
			}
		case fRet:
			var v int64
			if in.a >= 0 {
				v = regs[in.a]
			}
			m.sp = f.base
			m.regTop -= ff.numRegs
			m.counts.Ops += steps
			m.steps += steps
			return v, nil

		// Fused compare-and-branch. Each case is the unfused pair run
		// back to back: write the compare register, count the branch
		// as a second op (with its own budget check, so the step limit
		// still fires between the two halves exactly where the
		// reference engine would), then pick the successor. A threaded
		// branch first counts its br as a leading op, with a check of
		// its own, and falls through into the pair.
		case fBrJEQ:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJEQ:
			v := b2i(regs[in.a] == regs[in.b])
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}
		case fBrJNE:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJNE:
			v := b2i(regs[in.a] != regs[in.b])
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}
		case fBrJLT:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJLT:
			v := b2i(regs[in.a] < regs[in.b])
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}
		case fBrJLE:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJLE:
			v := b2i(regs[in.a] <= regs[in.b])
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}
		case fBrJGT:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJGT:
			v := b2i(regs[in.a] > regs[in.b])
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}
		case fBrJGE:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJGE:
			v := b2i(regs[in.a] >= regs[in.b])
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}
		case fBrJFEQ:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJFEQ:
			v := b2i(fval(regs[in.a]) == fval(regs[in.b]))
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}
		case fBrJFNE:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJFNE:
			v := b2i(fval(regs[in.a]) != fval(regs[in.b]))
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}
		case fBrJFLT:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJFLT:
			v := b2i(fval(regs[in.a]) < fval(regs[in.b]))
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}
		case fBrJFLE:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJFLE:
			v := b2i(fval(regs[in.a]) <= fval(regs[in.b]))
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}
		case fBrJFGT:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJFGT:
			v := b2i(fval(regs[in.a]) > fval(regs[in.b]))
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}
		case fBrJFGE:
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			fallthrough
		case fJFGE:
			v := b2i(fval(regs[in.a]) >= fval(regs[in.b]))
			regs[in.dst] = v
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			if v != 0 {
				pc = int(in.imm)
			} else {
				pc = int(in.c)
			}

		// Fused address-compute-and-access: the add half writes its
		// register and counts first (with the same mid-pair budget
		// check as fused branches), then the access half runs as an
		// ordinary fPLoad/fPStore body.
		case fAddPLoad:
			addr := regs[in.a] + regs[in.b]
			regs[in.c] = addr
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			m.counts.Loads++
			var v int64
			var ok bool
			switch {
			case addr >= heapBase:
				v, ok = loadFast(m.heap[:m.heapTop-heapBase], addr-heapBase, in.sz)
			case addr >= stackBase:
				v, ok = loadFast(stk, addr-stackBase, in.sz)
			case addr >= globalBase:
				v, ok = loadFast(globals, addr-globalBase, in.sz)
			}
			if !ok {
				var lerr error
				if v, lerr = m.loadMem(&f, addr, int(in.sz)); lerr != nil {
					return 0, lerr
				}
			}
			regs[in.dst] = v
		case fAddPStore:
			addr := regs[in.a] + regs[in.b]
			regs[in.c] = addr
			steps++
			if steps > budget {
				return 0, stepLimit(fn)
			}
			m.counts.Stores++
			val := regs[in.dst]
			var ok bool
			switch {
			case addr >= heapBase:
				ok = storeFast(m.heap[:m.heapTop-heapBase], addr-heapBase, in.sz, val)
			case addr >= stackBase:
				ok = storeFast(stk, addr-stackBase, in.sz, val)
			case addr >= globalBase:
				ok = storeFast(globals, addr-globalBase, in.sz, val)
			}
			if !ok {
				if serr := m.storeMem(&f, addr, int(in.sz), val); serr != nil {
					return 0, serr
				}
			}

		case fCall:
			m.counts.Calls++
			src := in.src
			target := in.imm
			if target == callIndirect {
				addr := regs[in.a]
				idx := addr - funcBase
				if idx < 0 || int(idx) >= len(p.funcs) {
					return 0, &Error{Func: fn.Name, Msg: fmt.Sprintf("indirect call through invalid address %#x", addr)}
				}
				target = idx
			}
			if target == callIntrinsic {
				// Intrinsics never touch the step counters, so no
				// settle/reload is needed around them.
				args := m.argScratch[:0]
				for _, a := range src.Args() {
					args = append(args, regs[a])
				}
				m.argScratch = args[:0]
				v, ierr := m.intrinsic(&f, src.Callee(), src, args)
				if ierr != nil {
					return 0, ierr
				}
				if in.dst >= 0 {
					regs[in.dst] = v
				}
				continue
			}
			callee := &p.funcs[target]
			cregs := m.allocRegs(callee.numRegs)
			args := src.Args()
			for i, pr := range callee.src.Params {
				if i < len(args) {
					cregs[pr] = regs[args[i]]
				}
			}
			// Settle the local counter so the callee budgets against
			// up-to-date step totals, then reload what the callee may
			// have moved: the budget and the stack array.
			m.counts.Ops += steps
			m.steps += steps
			steps = 0
			v, cerr := m.runFlat(p, int(target), cregs)
			if cerr != nil {
				return 0, cerr
			}
			budget = m.max - m.steps
			stk = m.stack
			if in.dst >= 0 {
				regs[in.dst] = v
			}

		case fErr:
			return 0, &Error{Func: fn.Name, Msg: p.errs[in.imm]}

		default:
			return 0, &Error{Func: fn.Name, Msg: fmt.Sprintf("flat engine: bad opcode %d", in.op)}
		}
	}
}

// loadFast reads a little-endian value of a supported width when
// off..off+size lies inside buf; ok=false defers to the generic,
// fault-reporting loadMem path (out of bounds, or an unusual width
// that must produce loadMem's "bad load size" error).
func loadFast(buf []byte, off int64, sz uint8) (v int64, ok bool) {
	if off < 0 {
		return 0, false
	}
	switch sz {
	case 8:
		if off+8 <= int64(len(buf)) {
			return int64(binary.LittleEndian.Uint64(buf[off:])), true
		}
	case 4:
		if off+4 <= int64(len(buf)) {
			return int64(int32(binary.LittleEndian.Uint32(buf[off:]))), true
		}
	case 1:
		if off < int64(len(buf)) {
			return int64(int8(buf[off])), true
		}
	}
	return 0, false
}

// storeFast is loadFast's store twin.
func storeFast(buf []byte, off int64, sz uint8, v int64) bool {
	if off < 0 {
		return false
	}
	switch sz {
	case 8:
		if off+8 <= int64(len(buf)) {
			binary.LittleEndian.PutUint64(buf[off:], uint64(v))
			return true
		}
	case 4:
		if off+4 <= int64(len(buf)) {
			binary.LittleEndian.PutUint32(buf[off:], uint32(v))
			return true
		}
	case 1:
		if off < int64(len(buf)) {
			buf[off] = byte(v)
			return true
		}
	}
	return false
}

func fbits(v float64) int64 { return int64(math.Float64bits(v)) }
