package interp

import (
	"fmt"
	"math"
	"strconv"

	"regpromo/internal/ir"
)

// call executes fn with the given arguments and returns its result.
// args may be the machine's argument buffer: it is read into the
// callee's parameters before anything else can refill it. The
// activation allocates nothing: the register file comes from the
// flat engine's arena and goes back on return, and the frame is a
// value, with a copy on m.frames for ownerOf.
func (m *machine) call(fn *ir.Func, args []int64) (int64, error) {
	layout := m.layoutOf(fn)
	if m.sp+layout.size > stackBase+stackSize {
		return 0, &Error{Func: fn.Name, Msg: "stack overflow"}
	}
	m.ensureStack(m.sp + layout.size - stackBase)
	f := frame{
		fn:   fn,
		regs: m.allocRegs(fn.NumRegs),
		base: m.sp,
		size: layout.size,
	}
	for i, p := range fn.Params {
		if i < len(args) {
			f.regs[p] = args[i]
		}
	}
	// Zero the frame so uninitialized locals read deterministically.
	// Spill-only frames are skipped: the allocator stores every spill
	// slot before any load of it, so stale bytes are unobservable.
	if layout.needsZero {
		lo := f.base - stackBase
		clear(m.stack[lo : lo+layout.size])
	}
	m.sp += layout.size
	m.frames = append(m.frames, f)

	b := fn.Entry
	for {
		next, ret, done, err := m.execBlock(&f, b)
		if err == nil && !done {
			b = next
			continue
		}
		m.frames = m.frames[:len(m.frames)-1]
		m.sp = f.base
		m.regTop -= fn.NumRegs
		if err != nil {
			return 0, err
		}
		return ret, nil
	}
}

// execBlock runs one basic block, returning the successor or the
// function result.
func (m *machine) execBlock(f *frame, b *ir.Block) (next *ir.Block, ret int64, done bool, err error) {
	regs := f.regs
	if m.prof != nil {
		m.prof.hitBlock(f.fn, b)
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		m.steps++
		if m.steps > m.max {
			return nil, 0, false, &Error{Func: f.fn.Name, Msg: "step limit exceeded (infinite loop?)"}
		}
		m.counts.Ops++

		switch in.Op {
		case ir.OpNop:
			// no effect

		case ir.OpLoadI, ir.OpLoadF:
			regs[in.Dst] = in.Imm
		case ir.OpCopy:
			m.counts.Copies++
			regs[in.Dst] = regs[in.A]

		case ir.OpAdd:
			regs[in.Dst] = regs[in.A] + regs[in.B]
		case ir.OpSub:
			regs[in.Dst] = regs[in.A] - regs[in.B]
		case ir.OpMul:
			regs[in.Dst] = regs[in.A] * regs[in.B]
		case ir.OpDiv:
			if regs[in.B] == 0 {
				return nil, 0, false, &Error{Func: f.fn.Name, Msg: "integer division by zero"}
			}
			regs[in.Dst] = regs[in.A] / regs[in.B]
		case ir.OpRem:
			if regs[in.B] == 0 {
				return nil, 0, false, &Error{Func: f.fn.Name, Msg: "integer remainder by zero"}
			}
			regs[in.Dst] = regs[in.A] % regs[in.B]
		case ir.OpNeg:
			regs[in.Dst] = -regs[in.A]
		case ir.OpAnd:
			regs[in.Dst] = regs[in.A] & regs[in.B]
		case ir.OpOr:
			regs[in.Dst] = regs[in.A] | regs[in.B]
		case ir.OpXor:
			regs[in.Dst] = regs[in.A] ^ regs[in.B]
		case ir.OpNot:
			regs[in.Dst] = ^regs[in.A]
		case ir.OpShl:
			regs[in.Dst] = regs[in.A] << (uint64(regs[in.B]) & 63)
		case ir.OpShr:
			regs[in.Dst] = regs[in.A] >> (uint64(regs[in.B]) & 63)

		case ir.OpCmpEQ:
			regs[in.Dst] = b2i(regs[in.A] == regs[in.B])
		case ir.OpCmpNE:
			regs[in.Dst] = b2i(regs[in.A] != regs[in.B])
		case ir.OpCmpLT:
			regs[in.Dst] = b2i(regs[in.A] < regs[in.B])
		case ir.OpCmpLE:
			regs[in.Dst] = b2i(regs[in.A] <= regs[in.B])
		case ir.OpCmpGT:
			regs[in.Dst] = b2i(regs[in.A] > regs[in.B])
		case ir.OpCmpGE:
			regs[in.Dst] = b2i(regs[in.A] >= regs[in.B])

		case ir.OpFAdd:
			regs[in.Dst] = fop(regs[in.A], regs[in.B], func(a, b float64) float64 { return a + b })
		case ir.OpFSub:
			regs[in.Dst] = fop(regs[in.A], regs[in.B], func(a, b float64) float64 { return a - b })
		case ir.OpFMul:
			regs[in.Dst] = fop(regs[in.A], regs[in.B], func(a, b float64) float64 { return a * b })
		case ir.OpFDiv:
			regs[in.Dst] = fop(regs[in.A], regs[in.B], func(a, b float64) float64 { return a / b })
		case ir.OpFNeg:
			regs[in.Dst] = int64(math.Float64bits(-math.Float64frombits(uint64(regs[in.A]))))

		case ir.OpFCmpEQ:
			regs[in.Dst] = b2i(fval(regs[in.A]) == fval(regs[in.B]))
		case ir.OpFCmpNE:
			regs[in.Dst] = b2i(fval(regs[in.A]) != fval(regs[in.B]))
		case ir.OpFCmpLT:
			regs[in.Dst] = b2i(fval(regs[in.A]) < fval(regs[in.B]))
		case ir.OpFCmpLE:
			regs[in.Dst] = b2i(fval(regs[in.A]) <= fval(regs[in.B]))
		case ir.OpFCmpGT:
			regs[in.Dst] = b2i(fval(regs[in.A]) > fval(regs[in.B]))
		case ir.OpFCmpGE:
			regs[in.Dst] = b2i(fval(regs[in.A]) >= fval(regs[in.B]))

		case ir.OpI2F:
			regs[in.Dst] = int64(math.Float64bits(float64(regs[in.A])))
		case ir.OpF2I:
			regs[in.Dst] = int64(fval(regs[in.A]))

		case ir.OpCLoad, ir.OpSLoad:
			m.counts.Loads++
			if m.prof != nil {
				m.prof.load(in.Tag)
			}
			if m.san != nil {
				m.san.scalarRef(in)
			}
			addr, err := m.tagAddr(f, in.Tag)
			if err != nil {
				return nil, 0, false, err
			}
			v, err := m.loadMem(f, addr, int(in.Size))
			if err != nil {
				return nil, 0, false, err
			}
			regs[in.Dst] = v
		case ir.OpSStore:
			m.counts.Stores++
			if m.prof != nil {
				m.prof.store(in.Tag)
			}
			if m.san != nil {
				m.san.scalarMod(in)
			}
			addr, err := m.tagAddr(f, in.Tag)
			if err != nil {
				return nil, 0, false, err
			}
			if err := m.storeMem(f, addr, int(in.Size), regs[in.A]); err != nil {
				return nil, 0, false, err
			}
		case ir.OpPLoad:
			m.counts.Loads++
			addr := regs[in.A]
			if m.prof != nil {
				m.prof.load(m.ownerOf(addr))
			}
			if m.san != nil {
				m.san.ptrAccess(f.fn.Name, in, m.ownerOf(addr), false)
			}
			v, err := m.loadMem(f, addr, int(in.Size))
			if err != nil {
				return nil, 0, false, err
			}
			regs[in.Dst] = v
		case ir.OpPStore:
			m.counts.Stores++
			addr := regs[in.A]
			if m.prof != nil {
				m.prof.store(m.ownerOf(addr))
			}
			if m.san != nil {
				m.san.ptrAccess(f.fn.Name, in, m.ownerOf(addr), true)
			}
			if err := m.storeMem(f, addr, int(in.Size), regs[in.B]); err != nil {
				return nil, 0, false, err
			}

		case ir.OpAddrOf:
			if in.Callee() != "" {
				idx := m.funcIndex(in.Callee())
				if idx < 0 {
					return nil, 0, false, &Error{Func: f.fn.Name, Msg: "address of undefined function " + in.Callee()}
				}
				regs[in.Dst] = funcBase + int64(idx)
				break
			}
			addr, err := m.tagAddr(f, in.Tag)
			if err != nil {
				return nil, 0, false, err
			}
			regs[in.Dst] = addr

		case ir.OpBr:
			return b.Succs[0], 0, false, nil
		case ir.OpCBr:
			if regs[in.A] != 0 {
				return b.Succs[0], 0, false, nil
			}
			return b.Succs[1], 0, false, nil
		case ir.OpRet:
			if in.HasValue {
				return nil, regs[in.A], true, nil
			}
			return nil, 0, true, nil

		case ir.OpJsr:
			m.counts.Calls++
			v, err := m.execCall(f, in)
			if err != nil {
				return nil, 0, false, err
			}
			if in.HasValue && in.Dst != ir.RegInvalid {
				regs[in.Dst] = v
			}

		default:
			return nil, 0, false, &Error{Func: f.fn.Name, Msg: fmt.Sprintf("unimplemented opcode %s", in.Op)}
		}
	}
	return nil, 0, false, &Error{Func: f.fn.Name, Msg: fmt.Sprintf("block %s fell off the end", b.Label)}
}

func (m *machine) funcIndex(name string) int {
	for i, n := range m.mod.FuncOrder {
		if n == name {
			return i
		}
	}
	return -1
}

func (m *machine) execCall(f *frame, in *ir.Instr) (int64, error) {
	name := in.Callee()
	if name == "" {
		addr := f.regs[in.A]
		idx := addr - funcBase
		if idx < 0 || int(idx) >= len(m.mod.FuncOrder) {
			return 0, &Error{Func: f.fn.Name, Msg: fmt.Sprintf("indirect call through invalid address %#x", addr)}
		}
		name = m.mod.FuncOrder[idx]
	}
	args := m.argScratch[:0]
	for _, a := range in.Args() {
		args = append(args, f.regs[a])
	}
	m.argScratch = args[:0]
	if callee, ok := m.mod.Funcs[name]; ok {
		if m.san == nil {
			return m.call(callee, args)
		}
		// Sanitize: bracket the call with an observation record and
		// diff it against the site's static MOD/REF summary on
		// return. Errors abandon the record — the run has no result.
		m.san.pushCall(f.fn.Name, in)
		v, err := m.call(callee, args)
		if err == nil {
			m.san.popCall()
		}
		return v, err
	}
	return m.intrinsic(f, name, in, args)
}

func (m *machine) intrinsic(f *frame, name string, in *ir.Instr, args []int64) (int64, error) {
	switch name {
	case "print_int":
		m.out.WriteString(strconv.FormatInt(args[0], 10))
		m.out.WriteByte('\n')
		return 0, nil
	case "print_char":
		m.out.WriteByte(byte(args[0]))
		return 0, nil
	case "print_double":
		m.out.WriteString(strconv.FormatFloat(fval(args[0]), 'g', 10, 64))
		m.out.WriteByte('\n')
		return 0, nil
	case "print_str":
		addr := args[0]
		for {
			c, err := m.loadMem(f, addr, 1)
			if err != nil {
				return 0, err
			}
			if c == 0 {
				break
			}
			m.out.WriteByte(byte(c))
			addr++
		}
		return 0, nil
	case "malloc":
		n := args[0]
		if n < 0 {
			return 0, &Error{Func: f.fn.Name, Msg: "negative malloc size"}
		}
		if n == 0 {
			n = 1
		}
		addr := align16(m.heapTop)
		if addr+n > heapBase+int64(heapSize) {
			return 0, &Error{Func: f.fn.Name, Msg: "out of heap memory"}
		}
		need := addr + n - heapBase
		for int64(len(m.heap)) < need {
			m.heap = append(m.heap, make([]byte, max(int(need)-len(m.heap), 4096))...)
		}
		m.heapTop = addr + n
		if in.Site() != ir.TagInvalid {
			m.heapOwner = append(m.heapOwner, ownerRange{addr, addr + n, in.Site()})
		}
		return addr, nil
	case "free":
		return 0, nil
	}
	return 0, &Error{Func: f.fn.Name, Msg: "call to undefined function " + name}
}

func align16(a int64) int64 { return (a + 15) &^ 15 }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func fval(bits int64) float64 { return math.Float64frombits(uint64(bits)) }

func fop(a, b int64, f func(float64, float64) float64) int64 {
	return int64(math.Float64bits(f(fval(a), fval(b))))
}
