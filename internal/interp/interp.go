// Package interp executes IL modules in an instrumented virtual
// machine. The paper's evaluation instruments each compiled program
// "to record the total number of operations executed, stores executed,
// and loads executed" (§5); this interpreter produces exactly those
// dynamic counts, deterministically.
//
// Machine model: 64-bit registers (doubles are held bit-reinterpreted),
// a byte-addressable memory split into a global region, a stack of
// frames for address-taken locals, and a bump-allocated heap with one
// allocation site per malloc call. Every call activates a fresh
// register file, so cross-call register state is impossible by
// construction.
package interp

import (
	"encoding/binary"
	"fmt"
	"strings"

	"regpromo/internal/ir"
)

// Region base addresses. Address 0 stays unmapped so null dereferences
// fault.
const (
	globalBase = 0x0000_1000
	stackBase  = 0x1000_0000
	stackSize  = 8 << 20
	heapBase   = 0x4000_0000
	heapSize   = 64 << 20
	funcBase   = 0x7000_0000 // function "addresses" for indirect calls
)

// Counts are the dynamic instruction counters of one execution.
type Counts struct {
	// Ops is the total number of IL operations executed.
	Ops int64 `json:"ops"`
	// Loads counts executed memory loads (sLoad, cLoad, pLoad).
	Loads int64 `json:"loads"`
	// Stores counts executed memory stores (sStore, pStore).
	Stores int64 `json:"stores"`
	// Copies counts executed register copies.
	Copies int64 `json:"copies"`
	// Calls counts executed jsr operations.
	Calls int64 `json:"calls"`
}

// Engine selects the execution engine.
type Engine int

const (
	// EngineFlat is the default: the module is lowered once into a
	// contiguous flat-code array with pre-resolved operands (branch
	// targets as instruction indices, call targets as function
	// indices, frame offsets and global addresses baked into each
	// memory operation) and dispatched with a function-local pc.
	EngineFlat Engine = iota
	// EngineSwitch is the original block-walking reference engine.
	// It produces bit-identical counts, profiles, and behaviour, and
	// stays as the built-in differential oracle for the flat engine.
	EngineSwitch
	// EngineNative compiles the flat program to machine code: the
	// flattened instruction array is translated to Go source
	// (Program.NativeSource), built with the Go toolchain, and loaded
	// as a plugin or executed as a subprocess (internal/native). It
	// obeys the same parity contract as the interpreters — identical
	// output, exit status, error text, and dynamic counts — but runs
	// only through driver.Compilation.Execute, which owns the build
	// artifact cache; interp.Run rejects it.
	EngineNative
)

func (e Engine) String() string {
	switch e {
	case EngineSwitch:
		return "switch"
	case EngineNative:
		return "native"
	}
	return "flat"
}

// ParseEngine resolves an engine name ("flat", "switch", or
// "native").
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "flat":
		return EngineFlat, nil
	case "switch":
		return EngineSwitch, nil
	case "native":
		return EngineNative, nil
	}
	return EngineFlat, fmt.Errorf("unknown engine %q (want flat, switch, or native)", s)
}

// Options configure an execution.
type Options struct {
	// MaxSteps bounds execution; 0 means the default (2^31).
	MaxSteps int64
	// Profile enables hot-spot profiling: per-basic-block execution
	// counts and per-tag dynamic load/store counters, reported in
	// Result.Profile. Pointer accesses are attributed to the tag
	// owning the resolved address, which costs an ownership lookup
	// per access — leave this off for plain measurements.
	Profile bool
	// Engine selects the execution engine; the zero value is the
	// flat-code engine.
	Engine Engine
	// Sanitize enables the analysis-soundness sanitizer: every memory
	// access is diffed against the static MOD/REF and points-to sets
	// and violations are reported in Result.Violations.
	Sanitize bool
}

// Hooked reports whether the execution asks for a profile or the
// sanitizer. Only the switch engine carries these hooks, so a hooked
// flat-engine execution runs there instead; the engines' parity makes
// the Result the same.
func (o Options) Hooked() bool { return o.Profile || o.Sanitize }

// Result is the outcome of an execution.
type Result struct {
	Counts Counts
	// Exit is main's return value.
	Exit int64
	// Output is everything the program printed.
	Output string
	// Profile is the execution profile when Options.Profile was set,
	// nil otherwise.
	Profile *Profile
	// Violations are the analysis-soundness diagnostics collected
	// when Options.Sanitize was set; empty on a clean run.
	Violations []ir.Diag
}

// Error is a runtime fault with function context.
type Error struct {
	Func string
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("runtime error in %s: %s", e.Func, e.Msg) }

// machine is the execution state.
type machine struct {
	mod  *ir.Module
	opts Options

	globals []byte
	stack   []byte
	heap    []byte

	globalAddr map[ir.TagID]int64
	// globalOwner resolves a global address back to its tag.
	globalOwner []ownerRange
	// heapOwner records allocation-site ownership of heap ranges.
	heapOwner []ownerRange

	// layouts caches frame layouts per function. The key is the
	// function pointer, not its name: pointer hashing is cheaper than
	// string hashing on every call, and two modules reusing a name
	// can never collide.
	layouts map[*ir.Func]*frameLayout

	sp      int64 // next free stack address
	heapTop int64

	counts Counts
	steps  int64
	max    int64
	out    strings.Builder

	// regArena is the flat engine's register allocator: each call
	// slices its register file out of this arena instead of calling
	// make, and returns it on exit. Growth replaces the backing
	// array; outstanding frames keep their own (still valid) slices.
	regArena []int64
	regTop   int
	// argScratch is a reusable buffer for call arguments: every
	// intrinsic call's, and the switch engine's for every call (call
	// copies them into the callee's parameters first thing).
	argScratch []int64

	// prof records hot-spot data when profiling is enabled; nil
	// otherwise. Only the switch engine runs with it set.
	prof *profiler
	// san records analysis-soundness observations when sanitizing;
	// nil otherwise. Only the switch engine runs with it set.
	san *sanitizer

	// frames is the switch engine's activation stack, walked by
	// ownerOf to attribute stack addresses.
	frames []frame
}

type ownerRange struct {
	lo, hi int64
	tag    ir.TagID
}

type frame struct {
	fn   *ir.Func
	regs []int64
	base int64 // frame base address
	size int64
}

// frameLayout assigns frame offsets to a function's local tags.
type frameLayout struct {
	offsets map[ir.TagID]int64
	size    int64
	// needsZero is false when every slot in the frame is a
	// register-allocator spill slot. The spiller stores a slot before
	// any load of it by construction, so such frames are fully
	// stored-before-loaded and need no entry zeroing.
	needsZero bool
}

// computeLayout lays out fn's frame. Shared by the machine's cache and
// the flat-code compiler so both always agree on offsets.
func computeLayout(mod *ir.Module, fn *ir.Func) *frameLayout {
	l := &frameLayout{offsets: make(map[ir.TagID]int64, len(fn.Locals))}
	for _, tid := range fn.Locals {
		tag := mod.Tags.Get(tid)
		l.size = align8(l.size)
		l.offsets[tid] = l.size
		l.size += int64(max(tag.Size, 1))
		if tag.Kind != ir.TagSpill {
			l.needsZero = true
		}
	}
	l.size = align8(l.size)
	return l
}

// Run executes the module's main function under the selected engine.
// A hooked flat-engine execution (Options.Hooked) runs on the switch
// engine. The native engine needs a build-artifact cache and a
// toolchain invocation, both owned by driver.Compilation — route
// native executions through Compilation.Execute instead.
func Run(mod *ir.Module, opts Options) (*Result, error) {
	switch opts.Engine {
	case EngineSwitch:
		return runSwitch(mod, opts, buildImage(mod))
	case EngineNative:
		return nil, fmt.Errorf("native engine requires a driver.Compilation (use Compilation.Execute)")
	}
	if opts.Hooked() {
		return runSwitch(mod, opts, buildImage(mod))
	}
	return Flatten(mod, false).Run(opts)
}

// runSwitch executes main on the block-walking reference engine,
// loading the module from img.
func runSwitch(mod *ir.Module, opts Options, img *execImage) (*Result, error) {
	mainFn, ok := mod.Funcs["main"]
	if !ok {
		return nil, &Error{Func: "main", Msg: "no main function"}
	}
	m := newMachineImage(mod, opts, img)
	exit, err := m.call(mainFn, nil)
	if err != nil {
		return nil, err
	}
	return m.result(exit), nil
}

// execImage is the precomputed load-time image of a module: the
// global memory layout, ownership ranges, and the initialized global
// bytes. Building it walks the whole tag table and applies every
// initializer — for a short-running program that can cost more than
// the execution itself — so the flat engine computes it once per
// Program and every run just copies the initialized bytes.
type execImage struct {
	globalAddr  map[ir.TagID]int64
	globalOwner []ownerRange
	// globals is the initialized global region template; each machine
	// copies it so runs cannot observe each other's writes.
	globals []byte
}

// buildImage lays out and initializes the module's global region.
func buildImage(mod *ir.Module) *execImage {
	img := &execImage{}
	addrs, end := globalAddrs(mod)
	img.globalAddr = addrs
	for _, tag := range mod.Tags.All() {
		if tag.Kind != ir.TagGlobal {
			continue
		}
		addr := addrs[tag.ID]
		img.globalOwner = append(img.globalOwner, ownerRange{addr, addr + int64(max(tag.Size, 1)), tag.ID})
	}
	img.globals = make([]byte, end-globalBase)
	for _, init := range mod.Inits {
		base := addrs[init.Tag] - globalBase
		copy(img.globals[base:], init.Data)
		for _, rel := range init.Relocs {
			target := addrs[rel.Target] + rel.Addend
			binary.LittleEndian.PutUint64(img.globals[base+int64(rel.Offset):], uint64(target))
		}
	}
	return img
}

// newMachineImage builds execution state from a precomputed image.
// The address map and ownership ranges are shared read-only; the
// global bytes are copied. The stack region is committed lazily
// (ensureStack), so construction costs O(globals), not O(stack).
func newMachineImage(mod *ir.Module, opts Options, img *execImage) *machine {
	m := &machine{
		mod:         mod,
		opts:        opts,
		globals:     append([]byte(nil), img.globals...),
		heap:        make([]byte, 0),
		globalAddr:  img.globalAddr,
		globalOwner: img.globalOwner,
		layouts:     make(map[*ir.Func]*frameLayout),
		sp:          stackBase,
		heapTop:     heapBase,
		max:         opts.MaxSteps,
	}
	if m.max == 0 {
		m.max = 1 << 31
	}
	if opts.Profile {
		m.prof = newProfiler(mod)
	}
	if opts.Sanitize {
		m.san = newSanitizer(mod)
	}
	return m
}

// ensureStack commits the stack region through need bytes, rounded up
// to a power of two (capped at stackSize): the first commit is the
// entry frame's own need, and every later one at least doubles the
// region. The region is logically stackSize bytes of zeroes;
// committing it lazily keeps machine construction cheap when one
// program runs many times. Both engines (and natgen's copy of this
// function) commit at frame push with identical frame sizes, so the
// committed prefix — and therefore which wild stack addresses fault in
// mem — evolves identically under each engine.
func (m *machine) ensureStack(need int64) {
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

// result assembles the final Result after a successful run.
func (m *machine) result(exit int64) *Result {
	res := &Result{Counts: m.counts, Exit: exit, Output: m.out.String()}
	if m.prof != nil {
		res.Profile = m.prof.result(m.mod)
	}
	if m.san != nil {
		res.Violations = m.san.finish()
	}
	return res
}

// globalAddrs computes the global memory layout: every global tag's
// absolute address, plus the end address of the region. Shared by the
// machine loader and the flat-code compiler so the pre-resolved
// addresses baked into flat code always match the loaded layout.
func globalAddrs(mod *ir.Module) (map[ir.TagID]int64, int64) {
	addrs := make(map[ir.TagID]int64)
	addr := int64(globalBase)
	for _, tag := range mod.Tags.All() {
		if tag.Kind != ir.TagGlobal {
			continue
		}
		addr = align8(addr)
		addrs[tag.ID] = addr
		addr += int64(max(tag.Size, 1))
	}
	return addrs, addr
}

func align8(a int64) int64 { return (a + 7) &^ 7 }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// layoutOf computes (and caches) the frame layout of fn.
func (m *machine) layoutOf(fn *ir.Func) *frameLayout {
	if l, ok := m.layouts[fn]; ok {
		return l
	}
	l := computeLayout(m.mod, fn)
	m.layouts[fn] = l
	return l
}

// tagAddr resolves a scalar-op tag to its address in the current
// frame or the global region.
func (m *machine) tagAddr(f *frame, tid ir.TagID) (int64, error) {
	tag := m.mod.Tags.Get(tid)
	switch tag.Kind {
	case ir.TagGlobal:
		return m.globalAddr[tid], nil
	case ir.TagLocal, ir.TagSpill:
		off, ok := m.layoutOf(f.fn).offsets[tid]
		if !ok {
			return 0, &Error{Func: f.fn.Name, Msg: fmt.Sprintf("tag %s has no frame slot", tag.Name)}
		}
		return f.base + off, nil
	}
	return 0, &Error{Func: f.fn.Name, Msg: fmt.Sprintf("cannot address tag %s", tag.Name)}
}

// mem returns the byte slice and offset backing addr..addr+size.
func (m *machine) mem(f *frame, addr int64, size int) ([]byte, int64, error) {
	switch {
	case addr >= globalBase && addr+int64(size) <= globalBase+int64(len(m.globals)):
		return m.globals, addr - globalBase, nil
	case addr >= stackBase && addr+int64(size) <= stackBase+int64(len(m.stack)):
		return m.stack, addr - stackBase, nil
	case addr >= heapBase && addr+int64(size) <= m.heapTop:
		return m.heap, addr - heapBase, nil
	}
	return nil, 0, &Error{Func: f.fn.Name, Msg: fmt.Sprintf("invalid memory access at %#x size %d", addr, size)}
}

func (m *machine) loadMem(f *frame, addr int64, size int) (int64, error) {
	buf, off, err := m.mem(f, addr, size)
	if err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return int64(int8(buf[off])), nil
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(buf[off:]))), nil
	case 8:
		return int64(binary.LittleEndian.Uint64(buf[off:])), nil
	}
	return 0, &Error{Func: f.fn.Name, Msg: fmt.Sprintf("bad load size %d", size)}
}

func (m *machine) storeMem(f *frame, addr int64, size int, v int64) error {
	buf, off, err := m.mem(f, addr, size)
	if err != nil {
		return err
	}
	switch size {
	case 1:
		buf[off] = byte(v)
	case 4:
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(buf[off:], uint64(v))
	default:
		return &Error{Func: f.fn.Name, Msg: fmt.Sprintf("bad store size %d", size)}
	}
	return nil
}

// ownerOf resolves an address to the tag owning it, for the profile
// and the sanitizer.
func (m *machine) ownerOf(addr int64) ir.TagID {
	for _, r := range m.globalOwner {
		if addr >= r.lo && addr < r.hi {
			return r.tag
		}
	}
	for _, r := range m.heapOwner {
		if addr >= r.lo && addr < r.hi {
			return r.tag
		}
	}
	// Stack: walk active frames.
	for i := len(m.frames) - 1; i >= 0; i-- {
		f := &m.frames[i]
		if addr >= f.base && addr < f.base+f.size {
			l := m.layoutOf(f.fn)
			for tid, off := range l.offsets {
				tag := m.mod.Tags.Get(tid)
				if addr >= f.base+off && addr < f.base+off+int64(max(tag.Size, 1)) {
					return tid
				}
			}
		}
	}
	return ir.TagInvalid
}
