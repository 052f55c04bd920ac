package interp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file is the native-code generator: it translates a flat
// program (flatten.go) into a standalone Go source file that executes
// the same program directly as machine code. The translation is
// one flat instruction → one (usually one-line) Go statement:
//
//   - Every IL function becomes a Go function; the Chaitin–Briggs
//     register assignment maps 1:1 onto Go int64 locals (r0, r1, …),
//     which the Go compiler keeps in machine registers. Spill slots
//     and address-taken locals live in the same byte-addressed frame
//     region the interpreters use, at the same offsets.
//   - Branch targets become Go labels and gotos; fused
//     superinstructions (cmp+branch, add+pload/pstore, a constant
//     folded into and/add/mul, a br threaded into the cmp+branch it
//     jumps to) are emitted as the exact op sequence the flat engine
//     executes, with the same step and counter totals.
//   - Memory operations run against the same load image (globals
//     embedded as a string constant, lazily committed stack,
//     bump-allocated heap) with the same fast-path bounds checks and
//     the same fault messages on the fallback path.
//
// The parity contract is the flat engine's to the letter: identical
// output bytes, exit status, error text (runtime faults surface as a
// typed panic recovered at the entry point), identical
// op/load/store/copy/call counts, and the same step-limit error.
//
// The generated file is package main and imports only math and
// strconv, which keeps every plugin's dependency set small (the
// toolchain builds each imported package in -dynlink mode on a cold
// cache). It exports RPRun for plugin loading and a run function the
// subprocess entry file in internal/native calls; it declares no main
// itself. internal/native owns building, caching, and running it.

// NativeSource renders the program as a compilable Go source file,
// with the dynamic-op counters and the step-budget check compiled in.
// The output is deterministic for a given program, so its hash can
// key a build cache. The instrument flag is ignored (every build
// counts); it is kept for the benchmark harness, which passes true.
func (p *Program) NativeSource(instrument bool) string {
	g := &natgen{p: p}
	g.run()
	return g.buf.String()
}

// natgen is the code generator's state.
type natgen struct {
	p   *Program
	buf strings.Builder
	// pending counts steps accumulated by batchable ops
	// (pure ALU, and constant-address memory ops that can never fault)
	// since the last budget check; the next checkpoint op folds them
	// into one steps update (see checkpoint). pendLd, pendSt, and
	// pendCp batch the load/store/copy counters the same way, flushed
	// at the same points.
	pending int
	pendLd  int
	pendSt  int
	pendCp  int
}

// w appends one printf-formatted line.
func (g *natgen) w(format string, args ...any) {
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteByte('\n')
}

// lit appends one or more lines verbatim — used for emitted blocks
// that contain printf verbs destined for the generated program.
func (g *natgen) lit(s string) {
	g.buf.WriteString(s)
	g.buf.WriteByte('\n')
}

func (g *natgen) run() {
	g.prelude()
	g.runtime()
	g.entry()
	for i := range g.p.funcs {
		g.genFunc(i)
	}
}

// funcEnd returns the pc one past function i's last instruction.
func (g *natgen) funcEnd(i int) int {
	if i+1 < len(g.p.funcs) {
		return g.p.funcs[i+1].entry
	}
	return len(g.p.code)
}

// goName renders the Go identifier of IL function name.
func goName(name string) string { return "f_" + name }

// prelude emits the file header, imports, machine constants, and the
// embedded globals image.
func (g *natgen) prelude() {
	g.w("// Code generated by regpromo's native backend (interp.NativeSource). DO NOT EDIT.")
	g.w("package main")
	g.w("")
	g.w("import (")
	g.w("\t\"math\"")
	g.w("\t\"strconv\"")
	g.w(")")
	g.w("")
	g.w("const (")
	g.w("\tglobalBase = %d", int64(globalBase))
	g.w("\tstackBase  = %d", int64(stackBase))
	g.w("\tstackSize  = %d", int64(stackSize))
	g.w("\theapBase   = %d", int64(heapBase))
	g.w("\theapSize   = %d", int64(heapSize))
	g.w("\tfuncBase   = %d", int64(funcBase))
	g.w(")")
	g.w("")
	g.w("const stepMsg = %q", "step limit exceeded (infinite loop?)")
	g.w("")
	// The image is mostly zero-initialized arrays; its trailing zero
	// bytes are left out of the literal and restored by newMach.
	g.w("const globalsSize = %d", len(g.p.img.globals))
	g.w("const globalsImg = %q", strings.TrimRight(string(g.p.img.globals), "\x00"))
	g.w("")
}

// runtime emits the machine state and the helper library: memory
// access fast paths mirroring the flat engine's loadFast/storeFast,
// the generic fault-reporting fallback mirroring mem/loadMem/
// storeMem, and the runtime intrinsics.
func (g *natgen) runtime() {
	g.lit(`// rtErr is a runtime fault; it unwinds to the entry point, which
// reports it with the interpreters' exact error text.
type rtErr struct {
	fn  string
	msg string
}

type mach struct {
	globals []byte
	stack   []byte
	heap    []byte
	sp      int64
	heapTop int64
	out     []byte

	ops    int64
	loads  int64
	stores int64
	copies int64
	calls  int64
	steps  int64
	max    int64
}

// newMach starts a run on a fresh copy of the global image, so runs
// stay independent.
func newMach(maxSteps int64) *mach {
	globals := make([]byte, globalsSize)
	copy(globals, globalsImg)
	m := &mach{
		globals: globals,
		heap:    []byte{},
		out:     make([]byte, 0, 4096),
		sp:      stackBase,
		heapTop: heapBase,
		max:     maxSteps,
	}
	if m.max == 0 {
		m.max = 1 << 31
	}
	return m
}

func (m *mach) ensureStack(need int64) {
	if need <= int64(len(m.stack)) {
		return
	}
	sz := int64(1)
	for sz < need {
		sz *= 2
	}
	if sz > stackSize {
		sz = stackSize
	}
	grown := make([]byte, sz)
	copy(grown, m.stack)
	m.stack = grown
}

// memRegion resolves addr..addr+size to its backing slice, faulting
// exactly where the interpreters' mem() would.
func (m *mach) memRegion(fn string, addr, size int64) ([]byte, int64) {
	switch {
	case addr >= globalBase && addr+size <= globalBase+int64(len(m.globals)):
		return m.globals, addr - globalBase
	case addr >= stackBase && addr+size <= stackBase+int64(len(m.stack)):
		return m.stack, addr - stackBase
	case addr >= heapBase && addr+size <= m.heapTop:
		return m.heap, addr - heapBase
	}
	panic(rtErr{fn, "invalid memory access at " + hexAddr(addr) + " size " + strconv.FormatInt(size, 10)})
}

func (m *mach) loadAny(fn string, addr, size int64) int64 {
	buf, off := m.memRegion(fn, addr, size)
	switch size {
	case 1:
		return int64(int8(buf[off]))
	case 4:
		return int64(int32(le32(buf[off:])))
	case 8:
		return int64(le64(buf[off:]))
	}
	panic(rtErr{fn, "bad load size " + strconv.FormatInt(size, 10)})
}

func (m *mach) storeAny(fn string, addr, size, v int64) {
	buf, off := m.memRegion(fn, addr, size)
	switch size {
	case 1:
		buf[off] = byte(v)
	case 4:
		put32(buf[off:], uint32(v))
	case 8:
		put64(buf[off:], uint64(v))
	default:
		panic(rtErr{fn, "bad store size " + strconv.FormatInt(size, 10)})
	}
}

func (m *mach) gload8(fn string, addr int64) int64 {
	if off := addr - globalBase; off >= 0 && off+8 <= int64(len(m.globals)) {
		return int64(le64(m.globals[off:]))
	}
	return m.loadAny(fn, addr, 8)
}

func (m *mach) gload4(fn string, addr int64) int64 {
	if off := addr - globalBase; off >= 0 && off+4 <= int64(len(m.globals)) {
		return int64(int32(le32(m.globals[off:])))
	}
	return m.loadAny(fn, addr, 4)
}

func (m *mach) gload1(fn string, addr int64) int64 {
	if off := addr - globalBase; off >= 0 && off < int64(len(m.globals)) {
		return int64(int8(m.globals[off]))
	}
	return m.loadAny(fn, addr, 1)
}

func (m *mach) lload8(fn string, addr int64) int64 {
	if off := addr - stackBase; off >= 0 && off+8 <= int64(len(m.stack)) {
		return int64(le64(m.stack[off:]))
	}
	return m.loadAny(fn, addr, 8)
}

func (m *mach) lload4(fn string, addr int64) int64 {
	if off := addr - stackBase; off >= 0 && off+4 <= int64(len(m.stack)) {
		return int64(int32(le32(m.stack[off:])))
	}
	return m.loadAny(fn, addr, 4)
}

func (m *mach) lload1(fn string, addr int64) int64 {
	if off := addr - stackBase; off >= 0 && off < int64(len(m.stack)) {
		return int64(int8(m.stack[off]))
	}
	return m.loadAny(fn, addr, 1)
}

func (m *mach) pload8(fn string, addr int64) int64 {
	switch {
	case addr >= heapBase:
		if off := addr - heapBase; off+8 <= m.heapTop-heapBase {
			return int64(le64(m.heap[off:]))
		}
	case addr >= stackBase:
		if off := addr - stackBase; off+8 <= int64(len(m.stack)) {
			return int64(le64(m.stack[off:]))
		}
	case addr >= globalBase:
		if off := addr - globalBase; off+8 <= int64(len(m.globals)) {
			return int64(le64(m.globals[off:]))
		}
	}
	return m.loadAny(fn, addr, 8)
}

func (m *mach) pload4(fn string, addr int64) int64 {
	switch {
	case addr >= heapBase:
		if off := addr - heapBase; off+4 <= m.heapTop-heapBase {
			return int64(int32(le32(m.heap[off:])))
		}
	case addr >= stackBase:
		if off := addr - stackBase; off+4 <= int64(len(m.stack)) {
			return int64(int32(le32(m.stack[off:])))
		}
	case addr >= globalBase:
		if off := addr - globalBase; off+4 <= int64(len(m.globals)) {
			return int64(int32(le32(m.globals[off:])))
		}
	}
	return m.loadAny(fn, addr, 4)
}

func (m *mach) pload1(fn string, addr int64) int64 {
	switch {
	case addr >= heapBase:
		if off := addr - heapBase; off < m.heapTop-heapBase {
			return int64(int8(m.heap[off]))
		}
	case addr >= stackBase:
		if off := addr - stackBase; off < int64(len(m.stack)) {
			return int64(int8(m.stack[off]))
		}
	case addr >= globalBase:
		if off := addr - globalBase; off < int64(len(m.globals)) {
			return int64(int8(m.globals[off]))
		}
	}
	return m.loadAny(fn, addr, 1)
}

func (m *mach) gstore8(fn string, addr, v int64) {
	if off := addr - globalBase; off >= 0 && off+8 <= int64(len(m.globals)) {
		put64(m.globals[off:], uint64(v))
		return
	}
	m.storeAny(fn, addr, 8, v)
}

func (m *mach) gstore4(fn string, addr, v int64) {
	if off := addr - globalBase; off >= 0 && off+4 <= int64(len(m.globals)) {
		put32(m.globals[off:], uint32(v))
		return
	}
	m.storeAny(fn, addr, 4, v)
}

func (m *mach) gstore1(fn string, addr, v int64) {
	if off := addr - globalBase; off >= 0 && off < int64(len(m.globals)) {
		m.globals[off] = byte(v)
		return
	}
	m.storeAny(fn, addr, 1, v)
}

func (m *mach) lstore8(fn string, addr, v int64) {
	if off := addr - stackBase; off >= 0 && off+8 <= int64(len(m.stack)) {
		put64(m.stack[off:], uint64(v))
		return
	}
	m.storeAny(fn, addr, 8, v)
}

func (m *mach) lstore4(fn string, addr, v int64) {
	if off := addr - stackBase; off >= 0 && off+4 <= int64(len(m.stack)) {
		put32(m.stack[off:], uint32(v))
		return
	}
	m.storeAny(fn, addr, 4, v)
}

func (m *mach) lstore1(fn string, addr, v int64) {
	if off := addr - stackBase; off >= 0 && off < int64(len(m.stack)) {
		m.stack[off] = byte(v)
		return
	}
	m.storeAny(fn, addr, 1, v)
}

func (m *mach) pstore8(fn string, addr, v int64) {
	switch {
	case addr >= heapBase:
		if off := addr - heapBase; off+8 <= m.heapTop-heapBase {
			put64(m.heap[off:], uint64(v))
			return
		}
	case addr >= stackBase:
		if off := addr - stackBase; off+8 <= int64(len(m.stack)) {
			put64(m.stack[off:], uint64(v))
			return
		}
	case addr >= globalBase:
		if off := addr - globalBase; off+8 <= int64(len(m.globals)) {
			put64(m.globals[off:], uint64(v))
			return
		}
	}
	m.storeAny(fn, addr, 8, v)
}

func (m *mach) pstore4(fn string, addr, v int64) {
	switch {
	case addr >= heapBase:
		if off := addr - heapBase; off+4 <= m.heapTop-heapBase {
			put32(m.heap[off:], uint32(v))
			return
		}
	case addr >= stackBase:
		if off := addr - stackBase; off+4 <= int64(len(m.stack)) {
			put32(m.stack[off:], uint32(v))
			return
		}
	case addr >= globalBase:
		if off := addr - globalBase; off+4 <= int64(len(m.globals)) {
			put32(m.globals[off:], uint32(v))
			return
		}
	}
	m.storeAny(fn, addr, 4, v)
}

func (m *mach) pstore1(fn string, addr, v int64) {
	switch {
	case addr >= heapBase:
		if off := addr - heapBase; off < m.heapTop-heapBase {
			m.heap[off] = byte(v)
			return
		}
	case addr >= stackBase:
		if off := addr - stackBase; off < int64(len(m.stack)) {
			m.stack[off] = byte(v)
			return
		}
	case addr >= globalBase:
		if off := addr - globalBase; off < int64(len(m.globals)) {
			m.globals[off] = byte(v)
			return
		}
	}
	m.storeAny(fn, addr, 1, v)
}

func (m *mach) printInt(v int64) {
	m.out = strconv.AppendInt(m.out, v, 10)
	m.out = append(m.out, '\n')
}

func (m *mach) printChar(v int64) {
	m.out = append(m.out, byte(v))
}

func (m *mach) printDouble(v int64) {
	m.out = strconv.AppendFloat(m.out, fv(v), 'g', 10, 64)
	m.out = append(m.out, '\n')
}

func (m *mach) printStr(fn string, addr int64) {
	for {
		buf, off := m.memRegion(fn, addr, 1)
		c := buf[off]
		if c == 0 {
			return
		}
		m.out = append(m.out, c)
		addr++
	}
}

func (m *mach) malloc(fn string, n int64) int64 {
	if n < 0 {
		panic(rtErr{fn, "negative malloc size"})
	}
	if n == 0 {
		n = 1
	}
	addr := (m.heapTop + 15) &^ 15
	if addr+n > heapBase+int64(heapSize) {
		panic(rtErr{fn, "out of heap memory"})
	}
	need := addr + n - heapBase
	for int64(len(m.heap)) < need {
		grow := int(need) - len(m.heap)
		if grow < 4096 {
			grow = 4096
		}
		m.heap = append(m.heap, make([]byte, grow)...)
	}
	m.heapTop = addr + n
	return addr
}

func argv(args []int64, i int) int64 {
	if i < len(args) {
		return args[i]
	}
	return 0
}

func fv(bits int64) float64 { return math.Float64frombits(uint64(bits)) }
func fb(f float64) int64    { return int64(math.Float64bits(f)) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// le32, le64, put32 and put64 are the slow-path helpers' little-endian
// accessors, spelled as the same shift-and-or byte assembly the inline
// fast paths use (bufLoad/bufStore), so the file needs no
// encoding/binary.
func le32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func put32(b []byte, v uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func put64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

// hexAddr renders v as the interpreters' fmt %#x does: 0x-prefixed
// lower-case hex, with a leading minus for a negative value.
func hexAddr(v int64) string {
	if v < 0 {
		return "-0x" + strconv.FormatUint(uint64(-v), 16)
	}
	return "0x" + strconv.FormatUint(uint64(v), 16)
}`)
	g.w("")
}

// entry emits the indirect-call dispatcher, run, and RPRun, the plugin
// symbol (builtin-typed so the host can assert the signature without
// sharing package types). The file declares no main: a plugin needs
// none, and internal/native adds its own entry file, which calls run,
// to a subprocess build.
func (g *natgen) entry() {
	// Indirect-call dispatcher: the flat engine accepts any address
	// whose offset from funcBase indexes the function table; every
	// such index has a case here, so the default arm faults exactly
	// where the interpreter's bounds check would.
	g.w("func calli(m *mach, fn string, addr int64, steps, cld, cst, ccp int64, args []int64) (int64, int64, int64, int64, int64) {")
	g.w("\tswitch addr - funcBase {")
	for i := range g.p.funcs {
		fn := g.p.funcs[i].src
		var call strings.Builder
		fmt.Fprintf(&call, "%s(m, steps, cld, cst, ccp", goName(fn.Name))
		for pi := range fn.Params {
			fmt.Fprintf(&call, ", argv(args, %d)", pi)
		}
		call.WriteByte(')')
		g.w("\tcase %d:", i)
		g.w("\t\treturn %s", call.String())
	}
	g.w("\t}")
	g.lit("\tpanic(rtErr{fn, \"indirect call through invalid address \" + hexAddr(addr)})")
	g.w("}")
	g.w("")

	g.w("func runMain(m *mach) (exit int64, e *rtErr) {")
	g.w("\tdefer func() {")
	g.w("\t\tif r := recover(); r != nil {")
	g.w("\t\t\tre, ok := r.(rtErr)")
	g.w("\t\t\tif !ok {")
	g.w("\t\t\t\tpanic(r)")
	g.w("\t\t\t}")
	g.w("\t\t\te = &re")
	g.w("\t\t}")
	g.w("\t}()")
	if g.p.mainIdx < 0 {
		g.w("\t_ = m")
		g.w("\treturn 0, &rtErr{%q, %q}", "main", "no main function")
	} else {
		mainFn := g.p.funcs[g.p.mainIdx].src
		var call strings.Builder
		fmt.Fprintf(&call, "%s(m, 0, 0, 0, 0", goName(mainFn.Name))
		for range mainFn.Params {
			call.WriteString(", 0")
		}
		call.WriteByte(')')
		// The threaded totals land on the mach only here, once the run
		// has completed; ops and steps count the same events, so both
		// read the final step total.
		g.w("\texit, steps, cld, cst, ccp := %s", call.String())
		g.w("\tm.ops, m.steps, m.loads, m.stores, m.copies = steps, steps, cld, cst, ccp")
		g.w("\treturn exit, nil")
	}
	g.w("}")
	g.w("")

	g.lit(`// run executes the program once. vals is [exit, ops, loads, stores,
// copies, calls, failed]; on failure errFn/errMsg carry the fault.
func run(maxSteps int64) (vals [7]int64, out []byte, errFn, errMsg string) {
	m := newMach(maxSteps)
	exit, rerr := runMain(m)
	if rerr != nil {
		vals[6] = 1
		return vals, nil, rerr.fn, rerr.msg
	}
	vals[0] = exit
	vals[1] = m.ops
	vals[2] = m.loads
	vals[3] = m.stores
	vals[4] = m.copies
	vals[5] = m.calls
	return vals, m.out, "", ""
}

// RPRun is the plugin entry point.
func RPRun(maxSteps int64) ([7]int64, []byte, string, string) {
	return run(maxSteps)
}`)
	g.w("")
}

// genFunc emits one IL function. The body is label-and-goto flat
// code: every instruction translates to a brace-wrapped statement
// group (so its temporaries never enter scope at function level,
// keeping gotos legal), and labels are emitted only for pcs that some
// emitted branch actually targets (Go rejects unused labels). Code
// that no path from the entry reaches is not emitted (see liveCode).
func (g *natgen) genFunc(fi int) {
	p := g.p
	ff := &p.funcs[fi]
	fn := ff.src
	entry, end := ff.entry, g.funcEnd(fi)
	live := g.liveCode(entry, end)

	used := map[int32]bool{}
	labels := map[int]bool{}
	reg := func(rs ...int32) {
		for _, r := range rs {
			if r >= 0 {
				used[r] = true
			}
		}
	}
	from := 0 // the pc being scanned: only a reached pc's branches need labels
	target := func(t int) {
		if live[from-entry] && t >= entry && t < end {
			labels[t] = true
		}
	}
	for pc := entry; pc < end; pc++ {
		from = pc
		in := &p.code[pc]
		switch in.op {
		case fLoadI, fAddrL:
			reg(in.dst)
		case fCopy, fNeg, fNot, fFNeg, fI2F, fF2I:
			reg(in.dst, in.a)
		case fAdd, fSub, fMul, fDiv, fRem, fAnd, fOr, fXor, fShl, fShr,
			fCmpEQ, fCmpNE, fCmpLT, fCmpLE, fCmpGT, fCmpGE,
			fFAdd, fFSub, fFMul, fFDiv,
			fFCmpEQ, fFCmpNE, fFCmpLT, fFCmpLE, fFCmpGT, fFCmpGE:
			reg(in.dst, in.a, in.b)
		case fLoadG, fLoadL:
			reg(in.dst)
		case fStoreG, fStoreL:
			reg(in.a)
		case fPLoad:
			reg(in.dst, in.a)
		case fPStore:
			reg(in.a, in.b)
		case fBr:
			target(int(in.imm))
		case fCBr:
			reg(in.a)
			target(int(in.imm))
			target(int(in.b))
		case fRet:
			reg(in.a)
		case fCall:
			reg(in.dst)
			if in.imm == callIndirect {
				reg(in.a)
			}
			for _, a := range in.src.Args() {
				reg(int32(a))
			}
		case fJEQ, fJNE, fJLT, fJLE, fJGT, fJGE,
			fJFEQ, fJFNE, fJFLT, fJFLE, fJFGT, fJFGE,
			fBrJEQ, fBrJNE, fBrJLT, fBrJLE, fBrJGT, fBrJGE,
			fBrJFEQ, fBrJFNE, fBrJFLT, fBrJFLE, fBrJFGT, fBrJFGE:
			reg(in.dst, in.a, in.b)
			target(int(in.imm))
			target(int(in.c))
		case fAddPLoad, fAddPStore:
			reg(in.dst, in.a, in.b, in.c)
		case fAndI, fAddI, fMulI:
			reg(in.dst, in.a, in.c)
		}
	}
	for _, pr := range fn.Params {
		reg(int32(pr))
	}

	// Functions thread the step and counter state through the call
	// ABI — four extra int64 params in, five results out, all in
	// registers — instead of settling them to mach fields around every
	// call: leaf-heavy programs pay the memory round trips on every
	// activation otherwise. steps carries the whole-run total, so the
	// budget is simply m.max.
	g.w("func %s(m *mach, steps, cld, cst, ccp int64%s) (int64, int64, int64, int64, int64) {",
		goName(fn.Name), paramDecls(len(fn.Params)))
	g.w("\tconst fname = %q", fn.Name)

	// Prologue: the flat engine's activation sequence — overflow
	// check, lazy stack commit, frame push, conditional zeroing.
	g.w("\tif m.sp+%d > stackBase+stackSize {", ff.frameSize)
	g.w("\t\tpanic(rtErr{fname, %q})", "stack overflow")
	g.w("\t}")
	// ensureStack has a growth loop, so the call doesn't inline; the
	// already-committed check stays here so the common activation pays
	// a compare instead of a call.
	g.w("\tif m.sp+%d-stackBase > int64(len(m.stack)) {", ff.frameSize)
	g.w("\t\tm.ensureStack(m.sp + %d - stackBase)", ff.frameSize)
	g.w("\t}")
	g.w("\tfp := m.sp")
	g.w("\t_ = fp")
	if ff.needsZero && ff.frameSize > 0 {
		g.w("\tclear(m.stack[fp-stackBase : fp-stackBase+%d])", ff.frameSize)
	}
	g.w("\tm.sp = fp + %d", ff.frameSize)

	// Cache the region slice headers in locals so the inline memory
	// fast paths read lengths and bases from registers: stores through
	// the data slices can't alias these, but the compiler can't prove
	// they don't alias m's fields and would reload them on every
	// access. Calls can grow the stack or heap, so call sites reload
	// everything but the immutable global image (see genCall).
	g.w("\tstk, gbl, hp, hpN := m.stack, m.globals, m.heap, m.heapTop-heapBase")
	g.w("\t_, _, _, _ = stk, gbl, hp, hpN")
	if ff.frameSize > 0 {
		// The frame sub-slice has a compile-time-constant length —
		// ensureStack committed the whole frame above, so every local
		// access at a constant in-frame offset is provably in bounds and
		// the compiler drops its bounds checks entirely. Re-derived at
		// call sites along with stk (the backing array moves on growth).
		g.w("\tfr := stk[fp-stackBase:][:%d]", ff.frameSize)
		g.w("\t_ = fr")
	}

	g.declareRegs(used)
	for i, pr := range fn.Params {
		g.w("\tr%d = p%d", int32(pr), i)
	}
	g.w("\tbudget := m.max")
	g.w("\t_ = budget")

	for pc := entry; pc < end; pc++ {
		if !live[pc-entry] {
			continue
		}
		if labels[pc] {
			g.flushPending()
			g.w("l%d:", pc-entry)
		}
		g.genInstr(fi, pc, entry, end)
	}
	g.flushPending()
	g.w("}")
	g.w("")
}

// liveCode marks the pcs in [entry, end) that some path from entry
// reaches. A flat pc is entered only by falling through from the pc
// before it or by a branch, so the code between an unconditional
// transfer and the next reached branch target never runs: threading
// leaves a loop header's fused compare-and-branch behind that way,
// once every jump into it has taken the test over.
func (g *natgen) liveCode(entry, end int) []bool {
	live := make([]bool, end-entry)
	work := []int{entry}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc < entry || pc >= end || live[pc-entry] {
			continue
		}
		live[pc-entry] = true
		in := &g.p.code[pc]
		switch in.op {
		case fBr:
			work = append(work, int(in.imm))
		case fCBr:
			work = append(work, int(in.imm), int(in.b))
		case fJEQ, fJNE, fJLT, fJLE, fJGT, fJGE,
			fJFEQ, fJFNE, fJFLT, fJFLE, fJFGT, fJFGE,
			fBrJEQ, fBrJNE, fBrJLT, fBrJLE, fBrJGT, fBrJGE,
			fBrJFEQ, fBrJFNE, fBrJFLT, fBrJFLE, fBrJFGT, fBrJFGE:
			work = append(work, int(in.imm), int(in.c))
		case fRet, fErr:
		default:
			work = append(work, pc+1)
		}
	}
	return live
}

// paramDecls renders ", p0 int64, p1 int64, …".
func paramDecls(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ", p%d int64", i)
	}
	return b.String()
}

// declareRegs emits the register file as int64 locals, in chunks,
// with blank-assignment anchors (a register that is only ever written
// would otherwise be a "declared and not used" compile error).
func (g *natgen) declareRegs(used map[int32]bool) {
	if len(used) == 0 {
		return
	}
	regs := make([]int, 0, len(used))
	for r := range used {
		regs = append(regs, int(r))
	}
	sort.Ints(regs)
	const chunk = 16
	for i := 0; i < len(regs); i += chunk {
		j := i + chunk
		if j > len(regs) {
			j = len(regs)
		}
		names := make([]string, 0, chunk)
		blanks := make([]string, 0, chunk)
		for _, r := range regs[i:j] {
			names = append(names, fmt.Sprintf("r%d", r))
			blanks = append(blanks, "_")
		}
		g.w("\tvar %s int64", strings.Join(names, ", "))
		g.w("\t%s = %s", strings.Join(blanks, ", "), strings.Join(names, ", "))
	}
}

// step renders the per-op step-count-and-budget check. Every flat instruction counts one step per op it
// stands for — fused pairs two, threaded branches three — but only
// checkpoint ops compare against the budget; pure ALU ops batch their
// counts into the next checkpoint (see checkpoint). This one is the
// unbatched single-step form, used for the second half of fused pairs.
func (g *natgen) step() string {
	return "steps++; if steps > budget { panic(rtErr{fname, stepMsg}) }; "
}

// checkpoint renders the budget check for an op whose effect is
// observable — it can fault, print, call, branch, or return. Pure
// ALU ops between checkpoints only bump the pending count: deferring
// their budget comparison to the next checkpoint is observationally
// identical (the error text and location are the same, the skipped
// ops only write registers, and the counters are unread on error),
// and a loop can never run unchecked because every branch is a
// checkpoint.
func (g *natgen) checkpoint() string {
	n := g.pending + 1
	g.pending = 0
	if n == 1 {
		return "steps++; if steps > budget { panic(rtErr{fname, stepMsg}) }; " + g.flushCounts()
	}
	return fmt.Sprintf("steps += %d; if steps > budget { panic(rtErr{fname, stepMsg}) }; %s", n, g.flushCounts())
}

// flushCounts renders the batched load/store/copy counter updates
// accumulated since the last flush. Counters are only read at settle
// points, so folding a straight-line run's worth into one add is
// exact; flushing wherever pending steps flush keeps each constant
// tied to the unique straight-line path that executed those ops.
func (g *natgen) flushCounts() string {
	var b strings.Builder
	for _, c := range []struct {
		n    *int
		name string
	}{{&g.pendLd, "cld"}, {&g.pendSt, "cst"}, {&g.pendCp, "ccp"}} {
		switch {
		case *c.n == 1:
			fmt.Fprintf(&b, "%s++; ", c.name)
		case *c.n > 1:
			fmt.Fprintf(&b, "%s += %d; ", c.name, *c.n)
		}
		*c.n = 0
	}
	return b.String()
}

// branchSteps renders the step accounting for a branch counting
// nsteps ops of its own (1 for br/cbr, 2 for a fused compare+branch).
// A branch with a back edge is a full checkpoint; a forward-only
// branch just folds the count, because forward edges cannot close a
// loop — any cycle has a back edge, so the amount of work between
// budget comparisons stays bounded by the function body.
func (g *natgen) branchSteps(nsteps int, backward bool) string {
	n := g.pending + nsteps
	g.pending = 0
	if backward {
		return fmt.Sprintf("steps += %d; if steps > budget { panic(rtErr{fname, stepMsg}) }; %s", n, g.flushCounts())
	}
	return fmt.Sprintf("steps += %d; %s", n, g.flushCounts())
}

// flushPending folds any batched pure-op steps into the counter
// without a budget check — emitted before labels so every path into a
// join point carries the same count. (Blocks end in checkpoint
// terminators, so this is a fallthrough safety net more than a hot
// path.)
func (g *natgen) flushPending() {
	if g.pending > 0 {
		n := g.pending
		g.pending = 0
		g.w("\t{ steps += %d; %s}", n, g.flushCounts())
	}
}

// count renders a counter bump. The
// per-op counters bump activation locals (settled like steps); the
// call counter writes through, since calls settle anyway.
func (g *natgen) count(field string) string {
	switch field {
	case "loads":
		return "cld++; "
	case "stores":
		return "cst++; "
	case "copies":
		return "ccp++; "
	}
	return "m." + field + "++; "
}

// faultGuard renders the deferred budget check for a batched op that
// can fault, emitted on its fault or slow path only. The op's steps
// are still pending (flushed at the next checkpoint), so the test adds
// the compile-time pending count: steps+K > budget exactly when the
// interpreter's per-op check would have stopped the run at or before
// this op — in which case the step-limit error, not the memory fault,
// is the canonical outcome. Call after bumping pending for the op.
func (g *natgen) faultGuard() string {
	return fmt.Sprintf("if steps+%d > budget { panic(rtErr{fname, stepMsg}) }; ", g.pending)
}

// staticMem reports whether the instruction is a memory op at a
// compile-time-constant address that can never fault — an in-frame
// local (the prologue commits the whole frame) or an in-image global.
// Such ops are batchable like pure ALU: deferring their budget check
// only risks executing them when the interpreter would have stopped
// one op earlier, and all they touch is frame or global memory, which
// is unobservable once the run errors.
func (g *natgen) staticMem(in *flatInstr, fi int) bool {
	w := memSuffix(in.sz)
	if w == 0 {
		return false
	}
	switch in.op {
	case fLoadL, fStoreL:
		return in.imm >= 0 && in.imm+int64(w) <= g.p.funcs[fi].frameSize
	case fLoadG, fStoreG:
		off := in.imm - globalBase
		return off >= 0 && off+int64(w) <= int64(len(g.p.img.globals))
	}
	return false
}

// callReload renders the post-call refresh of the cached region state:
// the callee may have grown (reallocated) the stack or heap, so the
// slice-header locals and the caller's frame view are re-derived. The
// global image never moves, so gbl is not reloaded, and the budget is
// the constant m.max (steps rides through the call ABI).
func (g *natgen) callReload(fi int) string {
	r := "; stk, hp, hpN = m.stack, m.heap, m.heapTop-heapBase"
	if fs := g.p.funcs[fi].frameSize; fs > 0 {
		r += fmt.Sprintf("; fr = stk[fp-stackBase:][:%d]", fs)
	}
	return r
}

// jump renders a goto to target, or a fault for a target outside the
// function (a malformed CFG the verifier rejects before execution;
// guarded so a stray edge faults instead of miscompiling).
func jump(target, entry, end int) string {
	if target >= entry && target < end {
		return fmt.Sprintf("goto l%d", target-entry)
	}
	return "panic(rtErr{fname, \"invalid branch target\"})"
}

// memSuffix returns the width suffix of the specialized accessor
// helpers, or 0 when the width needs the generic path.
func memSuffix(sz uint8) int {
	switch sz {
	case 1, 4, 8:
		return int(sz)
	}
	return 0
}

// bufLoad renders a width-w little-endian load from buf[off:] as a
// statement assigning dst. The multi-byte widths are spelled as the
// shift-and-or byte assembly rather than binary.LittleEndian calls:
// the compiler's load-combining pass turns the pattern into a single
// machine load, and unlike the call it keeps working inside the huge
// generated function bodies, where the inliner's small-budget rule
// for big functions refuses even binary.LittleEndian.
func bufLoad(buf, off string, w int, dst string) string {
	switch w {
	case 1:
		return fmt.Sprintf("%s = int64(int8(%s[%s]))", dst, buf, off)
	case 4:
		return fmt.Sprintf("hb := %s[%s:][:4]; %s = int64(int32(uint32(hb[0]) | uint32(hb[1])<<8 | uint32(hb[2])<<16 | uint32(hb[3])<<24))",
			buf, off, dst)
	default:
		return fmt.Sprintf("hb := %s[%s:][:8]; %s = int64(uint64(hb[0]) | uint64(hb[1])<<8 | uint64(hb[2])<<16 | uint64(hb[3])<<24 | uint64(hb[4])<<32 | uint64(hb[5])<<40 | uint64(hb[6])<<48 | uint64(hb[7])<<56)",
			buf, off, dst)
	}
}

// bufStore renders a width-w little-endian store of val to buf[off:],
// as byte stores the compiler's store-combining pass fuses into one
// machine store (see bufLoad for why not binary.LittleEndian).
func bufStore(buf, off string, w int, val string) string {
	switch w {
	case 1:
		return fmt.Sprintf("%s[%s] = byte(%s)", buf, off, val)
	case 4:
		// The shifts run on an unsigned temporary: store combining only
		// matches logical shifts, and a signed value would emit eight
		// arithmetic-shift-plus-byte-store pairs instead of one store.
		return fmt.Sprintf("hb := %s[%s:][:4]; hv := uint32(%s); hb[0] = byte(hv); hb[1] = byte(hv >> 8); hb[2] = byte(hv >> 16); hb[3] = byte(hv >> 24)",
			buf, off, val)
	default:
		return fmt.Sprintf("hb := %s[%s:][:8]; hv := uint64(%s); hb[0] = byte(hv); hb[1] = byte(hv >> 8); hb[2] = byte(hv >> 16); hb[3] = byte(hv >> 24); hb[4] = byte(hv >> 32); hb[5] = byte(hv >> 40); hb[6] = byte(hv >> 48); hb[7] = byte(hv >> 56)",
			buf, off, val)
	}
}

// inBounds renders the region guard `0 <= off && off+w <= limit` as a
// single unsigned comparison (a negative offset wraps to a huge
// uint64, so one compare covers both ends).
func inBounds(off string, w int, limit string) string {
	if w == 1 {
		return fmt.Sprintf("uint64(%s) < uint64(%s)", off, limit)
	}
	return fmt.Sprintf("uint64(%s)+%d <= uint64(%s)", off, w, limit)
}

// pLoadInline emits a pointer load of width w from the address
// expression addr into dst, with the heap and stack fast paths inline
// at the call site. The guards are exact region tests — the three
// regions are spaced farther apart than any region can grow, so a
// passing guard identifies the region the interpreters' mem() would
// pick and a failing triple falls back to the full helper (which
// faults with the canonical message). Inlining here is what makes
// the native engine fast: the helpers are too big for the Go inliner,
// and a call per memory op dominates the runtime of pointer-heavy
// programs.
func (g *natgen) pLoadInline(prefix, dst, addr string, w int) {
	g.w("\t{ %st := %s; if o := t - heapBase; %s { %s } else if o := t - stackBase; %s { %s } else if o := t - globalBase; %s { %s } else { %s%s = m.pload%d(fname, t) } }",
		prefix, addr,
		inBounds("o", w, "hpN"), bufLoad("hp", "o", w, dst),
		inBounds("o", w, "len(stk)"), bufLoad("stk", "o", w, dst),
		inBounds("o", w, "len(gbl)"), bufLoad("gbl", "o", w, dst),
		g.faultGuard(), dst, w)
}

// pStoreInline is pLoadInline's store twin. val must be a plain
// register or literal: it is re-read inside each branch, after any
// address register has been written.
func (g *natgen) pStoreInline(prefix, addr, val string, w int) {
	g.w("\t{ %st := %s; if o := t - heapBase; %s { %s } else if o := t - stackBase; %s { %s } else if o := t - globalBase; %s { %s } else { %sm.pstore%d(fname, t, %s) } }",
		prefix, addr,
		inBounds("o", w, "hpN"), bufStore("hp", "o", w, val),
		inBounds("o", w, "len(stk)"), bufStore("stk", "o", w, val),
		inBounds("o", w, "len(gbl)"), bufStore("gbl", "o", w, val),
		g.faultGuard(), w, val)
}

// genInstr emits one flat instruction as a brace-wrapped statement
// group. Op bodies mirror flatexec.go case by case; counter and
// budget placement is load-bearing for parity.
func (g *natgen) genInstr(fi, pc, entry, end int) {
	p := g.p
	in := &p.code[pc]
	var s string
	switch in.op {
	case fLoadI, fAdd, fSub, fMul, fNeg, fAnd, fOr, fXor, fNot, fShl, fShr,
		fCmpEQ, fCmpNE, fCmpLT, fCmpLE, fCmpGT, fCmpGE,
		fFCmpEQ, fFCmpNE, fFCmpLT, fFCmpLE, fFCmpGT, fFCmpGE,
		fFAdd, fFSub, fFMul, fFDiv, fFNeg, fI2F, fF2I, fAddrL, fNop:
		// Pure register ops: counted, but the budget comparison is
		// batched into the next checkpoint.
		g.pending++
	case fAndI, fAddI, fMulI:
		// A folded constant and its ALU op: two pure register ops.
		g.pending += 2
	case fCopy:
		g.pending++
		g.pendCp++
	case fDiv, fRem:
		// Fault-capable but unobservable on success: the budget
		// check moves onto the divide-by-zero branch (faultGuard).
		g.pending++
	case fLoadG, fLoadL, fPLoad:
		if memSuffix(in.sz) != 0 {
			g.pending++
			g.pendLd++
		} else {
			s = g.checkpoint()
		}
	case fStoreG, fStoreL, fPStore:
		if memSuffix(in.sz) != 0 {
			g.pending++
			g.pendSt++
		} else {
			s = g.checkpoint()
		}
	case fAddPLoad:
		if memSuffix(in.sz) != 0 {
			g.pending += 2
			g.pendLd++
		} else {
			s = g.checkpoint()
		}
	case fAddPStore:
		if memSuffix(in.sz) != 0 {
			g.pending += 2
			g.pendSt++
		} else {
			s = g.checkpoint()
		}
	case fBr, fCBr, fJEQ, fJNE, fJLT, fJLE, fJGT, fJGE,
		fJFEQ, fJFNE, fJFLT, fJFLE, fJFGT, fJFGE,
		fBrJEQ, fBrJNE, fBrJLT, fBrJLE, fBrJGT, fBrJGE,
		fBrJFEQ, fBrJFNE, fBrJFLT, fBrJFLE, fBrJFGT, fBrJFGE:
		// Branches do their own step accounting (branchSteps): back
		// edges check the budget, forward edges only count.
	default:
		s = g.checkpoint()
	}
	d := func() string { return fmt.Sprintf("r%d", in.dst) }
	a := func() string { return fmt.Sprintf("r%d", in.a) }
	b := func() string { return fmt.Sprintf("r%d", in.b) }

	alu := func(expr string) {
		g.w("\t{ %s%s = %s }", s, d(), expr)
	}
	condExpr := func(op flatOp) string {
		switch op {
		case fCmpEQ, fJEQ, fBrJEQ:
			return fmt.Sprintf("%s == %s", a(), b())
		case fCmpNE, fJNE, fBrJNE:
			return fmt.Sprintf("%s != %s", a(), b())
		case fCmpLT, fJLT, fBrJLT:
			return fmt.Sprintf("%s < %s", a(), b())
		case fCmpLE, fJLE, fBrJLE:
			return fmt.Sprintf("%s <= %s", a(), b())
		case fCmpGT, fJGT, fBrJGT:
			return fmt.Sprintf("%s > %s", a(), b())
		case fCmpGE, fJGE, fBrJGE:
			return fmt.Sprintf("%s >= %s", a(), b())
		case fFCmpEQ, fJFEQ, fBrJFEQ:
			return fmt.Sprintf("fv(%s) == fv(%s)", a(), b())
		case fFCmpNE, fJFNE, fBrJFNE:
			return fmt.Sprintf("fv(%s) != fv(%s)", a(), b())
		case fFCmpLT, fJFLT, fBrJFLT:
			return fmt.Sprintf("fv(%s) < fv(%s)", a(), b())
		case fFCmpLE, fJFLE, fBrJFLE:
			return fmt.Sprintf("fv(%s) <= fv(%s)", a(), b())
		case fFCmpGT, fJFGT, fBrJFGT:
			return fmt.Sprintf("fv(%s) > fv(%s)", a(), b())
		default: // fCmpGE's float twin
			return fmt.Sprintf("fv(%s) >= fv(%s)", a(), b())
		}
	}
	cmpExpr := func(op flatOp) string {
		return "b2i(" + condExpr(op) + ")"
	}

	switch in.op {
	case fNop:
		if s != "" {
			g.w("\t{ %s}", s)
		}

	case fLoadI:
		alu(strconv.FormatInt(in.imm, 10))
	case fCopy:
		// The copy counter is batched with the step count (pendCp).
		g.w("\t{ %s%s = %s }", s, d(), a())

	case fAdd:
		alu(fmt.Sprintf("%s + %s", a(), b()))
	case fSub:
		alu(fmt.Sprintf("%s - %s", a(), b()))
	case fMul:
		alu(fmt.Sprintf("%s * %s", a(), b()))
	case fDiv:
		g.w("\t{ %sif %s == 0 { %spanic(rtErr{fname, %q}) }; %s = %s / %s }",
			s, b(), g.faultGuard(), "integer division by zero", d(), a(), b())
	case fRem:
		g.w("\t{ %sif %s == 0 { %spanic(rtErr{fname, %q}) }; %s = %s %% %s }",
			s, b(), g.faultGuard(), "integer remainder by zero", d(), a(), b())
	case fNeg:
		alu(fmt.Sprintf("-%s", a()))
	case fAnd:
		alu(fmt.Sprintf("%s & %s", a(), b()))
	case fOr:
		alu(fmt.Sprintf("%s | %s", a(), b()))
	case fXor:
		alu(fmt.Sprintf("%s ^ %s", a(), b()))
	case fNot:
		alu(fmt.Sprintf("^%s", a()))
	case fShl:
		alu(fmt.Sprintf("%s << (uint64(%s) & 63)", a(), b()))
	case fShr:
		alu(fmt.Sprintf("%s >> (uint64(%s) & 63)", a(), b()))

	case fCmpEQ, fCmpNE, fCmpLT, fCmpLE, fCmpGT, fCmpGE,
		fFCmpEQ, fFCmpNE, fFCmpLT, fFCmpLE, fFCmpGT, fFCmpGE:
		alu(cmpExpr(in.op))

	case fAndI, fAddI, fMulI:
		// The constant lands in its register before the ALU half reads
		// a, which may name that same register.
		sym := "&"
		switch in.op {
		case fAddI:
			sym = "+"
		case fMulI:
			sym = "*"
		}
		g.w("\t{ %sr%d = %d; %s = %s %s %d }", s, in.c, in.imm, d(), a(), sym, in.imm)

	case fFAdd:
		alu(fmt.Sprintf("fb(fv(%s) + fv(%s))", a(), b()))
	case fFSub:
		alu(fmt.Sprintf("fb(fv(%s) - fv(%s))", a(), b()))
	case fFMul:
		alu(fmt.Sprintf("fb(fv(%s) * fv(%s))", a(), b()))
	case fFDiv:
		alu(fmt.Sprintf("fb(fv(%s) / fv(%s))", a(), b()))
	case fFNeg:
		alu(fmt.Sprintf("fb(-fv(%s))", a()))
	case fI2F:
		alu(fmt.Sprintf("fb(float64(%s))", a()))
	case fF2I:
		alu(fmt.Sprintf("int64(fv(%s))", a()))

	case fLoadG:
		w := memSuffix(in.sz)
		if g.staticMem(in, fi) {
			// The address is a compile-time constant inside the fixed
			// global image, so the access can never fault: emit the
			// direct indexed load with no region dispatch at all (step
			// and load counts are batched — see staticMem).
			g.w("\t{ %s%s }", s,
				bufLoad("gbl", strconv.FormatInt(in.imm-globalBase, 10), w, d()))
		} else if w != 0 {
			g.w("\t{ %s%s%s = m.gload%d(fname, %d) }", s, g.faultGuard(), d(), w, in.imm)
		} else {
			g.w("\t{ %s%s%s = m.loadAny(fname, %d, %d) }", s, g.count("loads"), d(), in.imm, in.sz)
		}
	case fLoadL:
		w := memSuffix(in.sz)
		if g.staticMem(in, fi) {
			// A constant in-frame offset can never fault — the prologue
			// committed the whole frame — so the access is a bare indexed
			// load from the constant-length frame slice, checked at
			// compile time (step and load counts batched, see staticMem).
			g.w("\t{ %s%s }", s,
				bufLoad("fr", strconv.FormatInt(in.imm, 10), w, d()))
		} else if w != 0 {
			// Out-of-frame offsets keep the lazy-commit fault semantics:
			// one bounds check against the committed stack length, with
			// the deferred budget test on the slow path only.
			g.w("\t{ %sif o := fp + %d - stackBase; %s { %s } else { %s%s = m.lload%d(fname, fp+%d) } }",
				s, in.imm, inBounds("o", w, "len(stk)"),
				bufLoad("stk", "o", w, d()), g.faultGuard(), d(), w, in.imm)
		} else {
			g.w("\t{ %s%s%s = m.loadAny(fname, fp+%d, %d) }", s, g.count("loads"), d(), in.imm, in.sz)
		}
	case fStoreG:
		w := memSuffix(in.sz)
		if g.staticMem(in, fi) {
			g.w("\t{ %s%s }", s,
				bufStore("gbl", strconv.FormatInt(in.imm-globalBase, 10), w, a()))
		} else if w != 0 {
			g.w("\t{ %s%sm.gstore%d(fname, %d, %s) }", s, g.faultGuard(), w, in.imm, a())
		} else {
			g.w("\t{ %s%sm.storeAny(fname, %d, %d, %s) }", s, g.count("stores"), in.imm, in.sz, a())
		}
	case fStoreL:
		w := memSuffix(in.sz)
		if g.staticMem(in, fi) {
			g.w("\t{ %s%s }", s,
				bufStore("fr", strconv.FormatInt(in.imm, 10), w, a()))
		} else if w != 0 {
			g.w("\t{ %sif o := fp + %d - stackBase; %s { %s } else { %sm.lstore%d(fname, fp+%d, %s) } }",
				s, in.imm, inBounds("o", w, "len(stk)"),
				bufStore("stk", "o", w, a()), g.faultGuard(), w, in.imm, a())
		} else {
			g.w("\t{ %s%sm.storeAny(fname, fp+%d, %d, %s) }", s, g.count("stores"), in.imm, in.sz, a())
		}
	case fAddrL:
		alu(fmt.Sprintf("fp + %d", in.imm))

	case fPLoad:
		if w := memSuffix(in.sz); w != 0 {
			g.pLoadInline(s, d(), a(), w)
		} else {
			g.w("\t{ %s%s%s = m.loadAny(fname, %s, %d) }", s, g.count("loads"), d(), a(), in.sz)
		}
	case fPStore:
		if w := memSuffix(in.sz); w != 0 {
			g.pStoreInline(s, a(), b(), w)
		} else {
			g.w("\t{ %s%sm.storeAny(fname, %s, %d, %s) }", s, g.count("stores"), a(), in.sz, b())
		}

	case fBr:
		g.w("\t{ %s%s }", g.branchSteps(1, int(in.imm) <= pc), jump(int(in.imm), entry, end))
	case fCBr:
		g.w("\t{ %sif %s != 0 { %s }; %s }",
			g.branchSteps(1, int(in.imm) <= pc || int(in.b) <= pc),
			a(), jump(int(in.imm), entry, end), jump(int(in.b), entry, end))
	case fRet:
		ret := "0"
		if in.a >= 0 {
			ret = a()
		}
		g.w("\t{ %sm.sp = fp; return %s, steps, cld, cst, ccp }", s, ret)

	case fJEQ, fJNE, fJLT, fJLE, fJGT, fJGE,
		fJFEQ, fJFNE, fJFLT, fJFLE, fJFGT, fJFGE,
		fBrJEQ, fBrJNE, fBrJLT, fBrJLE, fBrJGT, fBrJGE,
		fBrJFEQ, fBrJFNE, fBrJFLT, fBrJFLE, fBrJFGT, fBrJFGE:
		// The fused pair counts as two ops (a threaded one three, its
		// br first) with one combined budget comparison up front.
		// Checking before the compare rather than between the ops is
		// observationally identical: if the limit fires here, the
		// interpreter's compare may have executed first, but it only
		// writes a register, which is unread once the run errors; the
		// error text and location are the same either way. Branching on
		// the bool directly (rather than re-testing the materialized
		// 0/1) lets the compiler keep the flag.
		nsteps := 2
		if in.op >= fBrJEQ && in.op <= fBrJFGE {
			nsteps = 3
		}
		g.w("\t{ %sv := %s; %s = b2i(v); if v { %s }; %s }",
			g.branchSteps(nsteps, int(in.imm) <= pc || int(in.c) <= pc),
			condExpr(in.op), d(),
			jump(int(in.imm), entry, end), jump(int(in.c), entry, end))

	case fAddPLoad:
		// The fused pair's two steps are batched together; the deferred
		// budget test covers both on the slow path (see pLoadInline).
		c := fmt.Sprintf("r%d", in.c)
		if w := memSuffix(in.sz); w != 0 {
			g.pLoadInline(fmt.Sprintf("%st0 := %s + %s; %s = t0; ",
				s, a(), b(), c), d(), "t0", w)
		} else {
			g.w("\t{ %st := %s + %s; %s = t; %s%s%s = m.loadAny(fname, t, %d) }",
				s, a(), b(), c, g.step(), g.count("loads"), d(), in.sz)
		}
	case fAddPStore:
		// The stored value is read from in.dst after the sum lands in
		// in.c — the interpreters do the same, which matters when the
		// two name the same register.
		c := fmt.Sprintf("r%d", in.c)
		if w := memSuffix(in.sz); w != 0 {
			g.pStoreInline(fmt.Sprintf("%st0 := %s + %s; %s = t0; ",
				s, a(), b(), c), "t0", d(), w)
		} else {
			g.w("\t{ %st := %s + %s; %s = t; %s%sm.storeAny(fname, t, %d, %s) }",
				s, a(), b(), c, g.step(), g.count("stores"), in.sz, d())
		}

	case fCall:
		g.genCall(in, fi, s)

	case fErr:
		g.w("\t{ %spanic(rtErr{fname, %s}) }", s, strconv.Quote(p.errs[in.imm]))

	default:
		g.w("\t{ %spanic(rtErr{fname, %s}) }",
			s, strconv.Quote(fmt.Sprintf("flat engine: bad opcode %d", in.op)))
	}
}

// genCall emits an fCall: a direct call to another generated
// function, an indirect call through the dispatcher, or an intrinsic.
// Direct and indirect calls settle the local step counter so the
// callee budgets against up-to-date totals, then reload the budget;
// intrinsics never touch the step counters, mirroring the flat
// engine.
func (g *natgen) genCall(in *flatInstr, fi int, s string) {
	p := g.p
	src := in.src

	argReg := func(i int) string {
		if args := src.Args(); i < len(args) && args[i] >= 0 {
			return fmt.Sprintf("r%d", int32(args[i]))
		}
		return "0"
	}

	assign := ""
	if in.dst >= 0 {
		assign = fmt.Sprintf("r%d = ", in.dst)
	}

	switch in.imm {
	case callIntrinsic:
		zero := ""
		if in.dst >= 0 {
			zero = fmt.Sprintf("; r%d = 0", in.dst)
		}
		switch src.Callee() {
		case "print_int":
			g.w("\t{ %s%sm.printInt(%s)%s }", s, g.count("calls"), argReg(0), zero)
		case "print_char":
			g.w("\t{ %s%sm.printChar(%s)%s }", s, g.count("calls"), argReg(0), zero)
		case "print_double":
			g.w("\t{ %s%sm.printDouble(%s)%s }", s, g.count("calls"), argReg(0), zero)
		case "print_str":
			g.w("\t{ %s%sm.printStr(fname, %s)%s }", s, g.count("calls"), argReg(0), zero)
		case "malloc":
			g.w("\t{ %s%s%sm.malloc(fname, %s); hp, hpN = m.heap, m.heapTop-heapBase }",
				s, g.count("calls"), assign, argReg(0))
		case "free":
			g.w("\t{ %s%s_ = 0%s }", s, g.count("calls"), zero)
		default:
			g.w("\t{ %s%spanic(rtErr{fname, %s}) }",
				s, g.count("calls"), strconv.Quote("call to undefined function "+src.Callee()))
		}

	case callIndirect:
		args := "nil"
		if len(src.Args()) > 0 {
			elems := make([]string, len(src.Args()))
			for i := range src.Args() {
				elems[i] = argReg(i)
			}
			args = "[]int64{" + strings.Join(elems, ", ") + "}"
		}
		g.w("\t{ %s%s%s, steps, cld, cst, ccp = calli(m, fname, r%d, steps, cld, cst, ccp, %s)%s }",
			s, g.count("calls"), retDst(in.dst), in.a, args, g.callReload(fi))

	default:
		callee := &p.funcs[in.imm]
		var call strings.Builder
		fmt.Fprintf(&call, "%s(m, steps, cld, cst, ccp", goName(callee.src.Name))
		for i := range callee.src.Params {
			fmt.Fprintf(&call, ", %s", argReg(i))
		}
		call.WriteByte(')')
		g.w("\t{ %s%s%s, steps, cld, cst, ccp = %s%s }",
			s, g.count("calls"), retDst(in.dst), call.String(), g.callReload(fi))
	}
}

// retDst names the value-result target of a call: the
// destination register, or blank when the call's result is unused.
func retDst(dst int32) string {
	if dst >= 0 {
		return fmt.Sprintf("r%d", dst)
	}
	return "_"
}
