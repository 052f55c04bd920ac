// Package pointsto implements the paper's whole-program points-to
// analysis (§4), in the style of Ruf's context-insensitive analysis
// [18]: for every pointer-valued name the analysis computes the set of
// tags it may point to, propagating values through assignments,
// loads, stores, calls, and returns until fixed point. Non-local
// memory is modeled with explicit names (one node per tag), the heap
// is split by allocation site, and function pointers are tracked so
// indirect calls resolve to the functions a pointer can actually
// carry.
//
// The implementation is flow-insensitive at the register level where
// the paper's is SSA-based; the IL generator produces single-
// assignment temporaries for all address computations, so the
// precision difference is confined to user variables that are
// reassigned between address-takings — a strictly conservative
// approximation.
//
// The solver is an inclusion-constraint graph with difference
// propagation. Every register, every tag's contents, and every
// function's return value is a node with a dense id, and a node's
// value is two bitsets: the tags it may point to and the functions
// (by callgraph.FuncID) it may carry. One pass over the module
// extracts the constraints: base facts (address-of, malloc sites,
// initializer relocations), copy edges (copies, pointer arithmetic,
// scalar loads and stores, direct-call arguments and returns), and
// complex constraints keyed by a pointer node (pointer loads and
// stores, indirect calls). A node worklist then pushes only each
// node's delta — the members it has not yet propagated — along its
// edges, and every new target of a pointer node instantiates that
// node's complex constraints exactly once.
//
// Solve also hashes the module's pointer projection — every
// solver-understood instruction, structurally (no literal operands,
// which no pointer transfer reads) — walking the callgraph SCCs in
// reverse topological order and chaining callee component keys; when
// an analysis cache holds the projection's narrowing from an earlier
// compile, Solve replays it without solving at all. Points-to is not
// bottom-up compositional (argument facts flow callers→callees and
// memory nodes are global), so the replay is all-or-nothing at module
// grain; the projection's indifference to literal operands and
// non-pointer opcodes is what makes warm hits common — in particular,
// every constant-only edit replays.
package pointsto

import (
	"math/bits"
	"sort"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/callgraph"
	"regpromo/internal/ir"
	"regpromo/internal/par"
)

// Options is accepted for compatibility with callers written against
// the earlier Solve signature. It has no fields and changes nothing.
type Options struct{}

// Result maps analysis facts back to the program.
type Result struct {
	// s holds the solved sets; nil after a cache replay.
	s *solver
	// Steps counts the node visits of the solver's worklist —
	// deterministic for a given module, so it is safe to compare
	// across runs and report in telemetry. A cache replay reports the
	// recorded count of the run it replays.
	Steps int
	// Cached reports that the narrowing was replayed from the analysis
	// cache; per-register facts are unavailable on this path (only the
	// IL effects were needed).
	Cached bool
	// SCCsSolved and SCCsCached count callgraph components this run
	// solved versus replayed (all-or-nothing at module grain).
	SCCsSolved, SCCsCached int
}

// MemPointsTo returns the tag set the value stored in tag may point
// to. Unavailable after a cache replay.
func (r *Result) MemPointsTo(tag ir.TagID) ir.TagSet {
	if r.s == nil {
		return ir.TagSet{}
	}
	return r.s.tagSet(r.s.tagBase + int32(tag))
}

// AddrTakenSet returns the set of tags whose address the program can
// observe — the universe every pointer may-set is drawn from. After
// analysis narrows pointer operations, any tag set mentioning a tag
// outside this universe indicates a broken invariant; internal/check
// lints against it.
func AddrTakenSet(m *ir.Module) ir.TagSet {
	var s ir.TagSet
	for _, tag := range m.Tags.All() {
		if tag.AddrTaken {
			s.Add(tag.ID)
		}
	}
	return s
}

// Run analyzes the module, then narrows the tag sets of pointer-based
// memory operations and the target sets of indirect calls in place.
func Run(m *ir.Module, cg *callgraph.Graph) *Result {
	return Solve(m, cg, nil)
}

// Solve is Run with the incremental machinery exposed: when store is
// non-nil, the module's pointer projection is hashed (walking the
// callgraph SCCs in reverse topological order and chaining callee
// component keys) and a hit replays the cached narrowing verbatim,
// skipping the solve entirely; a miss solves, then records the
// narrowing under the projection key. Replayed IL is byte-identical
// to a from-scratch solve by construction: the key covers every input
// the solver and narrow() read. Options, if given, are ignored.
func Solve(m *ir.Module, cg *callgraph.Graph, store *cache.Store, _ ...Options) *Result {
	var key cache.Key
	if store != nil {
		key = projectionKey(m, cg)
		if e, ok := store.PointsTo(key); ok {
			res := &Result{Steps: e.Steps, Cached: true, SCCsCached: len(cg.SCCs)}
			replay(m, e)
			return res
		}
	}

	s := newSolver(m, cg)
	s.solve()
	res := &Result{s: s, Steps: s.steps, SCCsSolved: len(cg.SCCs)}

	rec := s.narrow()
	if store != nil {
		store.PutPointsTo(key, &cache.PointsToEntry{Funcs: rec, Steps: s.steps})
	}
	return res
}

// projectionKey hashes everything a solve reads: the module salt (tag
// table, initializers, addressed functions) and, per callgraph SCC in
// reverse topological order, each member's projection hash — its
// solver-understood instructions, structurally, with positions —
// chained with the keys of every callee component. The per-function
// hashes are independent, so they are computed in parallel before the
// (cheap, ordered) condensation walk.
func projectionKey(m *ir.Module, cg *callgraph.Graph) cache.Key {
	salt := cache.ModuleSalt(m)
	funcs := m.FuncsInOrder()
	fnKeys, _ := par.ParallelMap(len(funcs), 0, func(i int) (cache.Key, error) {
		return cache.FuncProjectionHash(funcs[i]), nil
	})
	sccKeys := make([]cache.Key, len(cg.SCCs))
	for i, comp := range cg.SCCMemberIDs {
		h := cache.NewHasher().Key(salt)
		for _, fid := range comp {
			h.Key(fnKeys[fid])
		}
		for _, j := range cg.SCCSuccs(i) {
			h.Key(sccKeys[j])
		}
		sccKeys[i] = h.Sum()
	}
	top := cache.NewHasher().Key(salt)
	top.Int(int64(len(sccKeys)))
	for _, k := range sccKeys {
		top.Key(k)
	}
	return top.Sum()
}

// replay installs a cached narrowing: the recorded pointer-op tag
// sets and indirect-call target lists, positionally.
func replay(m *ir.Module, e *cache.PointsToEntry) {
	for _, fe := range e.Funcs {
		fn := m.Funcs[fe.Name]
		for _, op := range fe.Ops {
			in := &fn.Blocks[op.Block].Instrs[op.Index]
			if op.Targets != nil {
				in.SetTargets(append([]string(nil), op.Targets...))
			} else {
				in.SetTags(op.Tags.Clone())
			}
		}
	}
}

// Complex-constraint kinds, stored in the low two bits of a cx entry.
const (
	cxLoad  = iota // other = destination register node of a pLoad
	cxStore        // other = source register node of a pStore
	cxCall         // other = index into solver.calls
)

// solver is the constraint graph. Node ids share one dense space:
// function f's registers occupy [regBase[f], regBase[f]+NumRegs),
// then one node per tag (the tag's contents) from tagBase, then one
// per function return value from retBase. Per-node state is kept in
// parallel slices; the sets themselves live in slot-indexed tables so
// that nodes that never hold a pointer cost only their slot word.
type solver struct {
	m       *ir.Module
	cg      *callgraph.Graph
	funcs   []*ir.Func
	regBase []int32
	tagBase int32
	retBase int32

	// slot[v] is 0 until node v first receives a member, then indexes
	// the set tables (slot 0 stays empty). tags/fns are the node's
	// value; dTags/dFns the members not yet pushed along its edges.
	slot        []int32
	tags, fns   [][]uint64
	dTags, dFns [][]uint64

	// Copy edges from extraction, in CSR form by source node.
	edgeOff []int32
	edges   []int32
	// Copy edges instantiated from complex constraints, as per-source
	// linked lists: dynHead[v]-1 indexes dynDst/dynNext, -1 ends.
	dynHead []int32
	dynDst  []int32
	dynNext []int32

	// Complex constraints in CSR form by pointer node; each entry is
	// other<<2 | kind.
	cxOff []int32
	cx    []int32
	calls []indirectCall

	queued []bool
	work   []int32
	spare  []int32
	steps  int
}

// indirectCall is one call through a function pointer.
type indirectCall struct {
	fid callgraph.FuncID
	in  *ir.Instr
	// fallback marks a call bound to every addressed function because
	// its pointer set was empty at a fixpoint.
	fallback bool
}

// pair is one extracted constraint before CSR packing: a copy edge
// src→dst, or a complex constraint keyed by src.
type pair struct{ src, dst int32 }

func newSolver(m *ir.Module, cg *callgraph.Graph) *solver {
	s := &solver{m: m, cg: cg, funcs: m.FuncsInOrder()}
	s.regBase = make([]int32, len(s.funcs))
	n := int32(0)
	for i, fn := range s.funcs {
		s.regBase[i] = n
		n += int32(fn.NumRegs)
	}
	s.tagBase = n
	s.retBase = n + int32(m.Tags.Len())
	n = s.retBase + int32(len(s.funcs))
	s.slot = make([]int32, n)
	s.queued = make([]bool, n)
	s.dynHead = make([]int32, n)
	s.tags, s.fns = [][]uint64{nil}, [][]uint64{nil}
	s.dTags, s.dFns = [][]uint64{nil}, [][]uint64{nil}
	return s
}

func (s *solver) reg(f callgraph.FuncID, r ir.Reg) int32 { return s.regBase[f] + int32(r) }

// solve extracts the constraints and drains the worklist to a
// fixpoint. An indirect call whose pointer set is still empty at the
// fixpoint is then bound to every addressed function and the
// worklist drained again; binding only adds flow, so a set that was
// non-empty stays non-empty and the result does not depend on the
// order in which calls were first visited.
func (s *solver) solve() {
	copies, complex := s.extract()
	s.edgeOff, s.edges = csr(len(s.slot), copies)
	s.cxOff, s.cx = csr(len(s.slot), complex)
	for {
		s.drain()
		bound := false
		for i := range s.calls {
			c := &s.calls[i]
			if c.fallback || len(s.fns[s.slot[s.reg(c.fid, c.in.A)]]) > 0 {
				continue
			}
			c.fallback, bound = true, true
			for _, name := range s.m.AddressedFuncs {
				if f := s.cg.ID(name); f != callgraph.FuncInvalid {
					s.bind(c.fid, c.in, f, s.addEdge)
				} else {
					s.intrinsic(c.fid, name, c.in)
				}
			}
		}
		if !bound {
			return
		}
	}
}

// extract walks the module once: base facts go straight into the
// sets (queueing their nodes), copy edges and complex constraints are
// returned for packing.
func (s *solver) extract() (copies, complex []pair) {
	static := func(src, dst int32) { copies = append(copies, pair{src, dst}) }
	for _, init := range s.m.Inits {
		for _, rel := range init.Relocs {
			s.addTag(s.tagBase+int32(init.Tag), rel.Target)
		}
	}
	for i, fn := range s.funcs {
		fid := callgraph.FuncID(i)
		for _, b := range fn.Blocks {
			for j := range b.Instrs {
				in := &b.Instrs[j]
				switch in.Op {
				case ir.OpAddrOf:
					if in.Callee() != "" {
						s.addFunc(s.reg(fid, in.Dst), s.cg.ID(in.Callee()))
					} else {
						s.addTag(s.reg(fid, in.Dst), in.Tag)
					}
				case ir.OpCopy:
					static(s.reg(fid, in.A), s.reg(fid, in.Dst))
				case ir.OpAdd, ir.OpSub:
					// Pointer arithmetic stays within the object; both
					// operands may carry the pointer.
					static(s.reg(fid, in.A), s.reg(fid, in.Dst))
					static(s.reg(fid, in.B), s.reg(fid, in.Dst))
				case ir.OpSLoad, ir.OpCLoad:
					static(s.tagBase+int32(in.Tag), s.reg(fid, in.Dst))
				case ir.OpSStore:
					static(s.reg(fid, in.A), s.tagBase+int32(in.Tag))
				case ir.OpPLoad:
					complex = append(complex, pair{s.reg(fid, in.A), s.reg(fid, in.Dst)<<2 | cxLoad})
				case ir.OpPStore:
					complex = append(complex, pair{s.reg(fid, in.A), s.reg(fid, in.B)<<2 | cxStore})
				case ir.OpJsr:
					if in.Callee() == "" {
						complex = append(complex, pair{s.reg(fid, in.A), int32(len(s.calls))<<2 | cxCall})
						s.calls = append(s.calls, indirectCall{fid: fid, in: in})
					} else if cid := s.cg.ID(in.Callee()); cid != callgraph.FuncInvalid {
						s.bind(fid, in, cid, static)
					} else {
						s.intrinsic(fid, in.Callee(), in)
					}
				case ir.OpRet:
					if in.HasValue && in.A != ir.RegInvalid {
						static(s.reg(fid, in.A), s.retBase+int32(fid))
					}
				}
			}
		}
	}
	return copies, complex
}

// csr packs pairs into offsets by source node and their targets.
func csr(n int, ps []pair) (off, to []int32) {
	off = make([]int32, n+1)
	for _, p := range ps {
		off[p.src+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	to = make([]int32, len(ps))
	next := append([]int32(nil), off[:n]...)
	for _, p := range ps {
		to[next[p.src]] = p.dst
		next[p.src]++
	}
	return off, to
}

// bind links a call in caller to callee: arguments flow into
// parameters and the callee's return value into the call's result.
func (s *solver) bind(caller callgraph.FuncID, in *ir.Instr, callee callgraph.FuncID, edge func(src, dst int32)) {
	params := s.funcs[callee].Params
	for i, arg := range in.Args() {
		if i >= len(params) {
			break
		}
		edge(s.reg(caller, arg), s.reg(callee, params[i]))
	}
	if in.HasValue && in.Dst != ir.RegInvalid {
		edge(s.retBase+int32(callee), s.reg(caller, in.Dst))
	}
}

// intrinsic models a call to an undefined function: malloc returns
// its allocation site; nothing else carries pointers.
func (s *solver) intrinsic(caller callgraph.FuncID, name string, in *ir.Instr) {
	if name == "malloc" && in.Site() != ir.TagInvalid && in.Dst != ir.RegInvalid {
		s.addTag(s.reg(caller, in.Dst), in.Site())
	}
}

// slotOf returns node v's set slot, allocating it on first use.
func (s *solver) slotOf(v int32) int32 {
	if s.slot[v] == 0 {
		s.slot[v] = int32(len(s.tags))
		s.tags = append(s.tags, nil)
		s.fns = append(s.fns, nil)
		s.dTags = append(s.dTags, nil)
		s.dFns = append(s.dFns, nil)
	}
	return s.slot[v]
}

func (s *solver) push(v int32) {
	if !s.queued[v] {
		s.queued[v] = true
		s.work = append(s.work, v)
	}
}

func (s *solver) addTag(v int32, t ir.TagID) {
	k := s.slotOf(v)
	if orBit(&s.tags[k], &s.dTags[k], int(t)) {
		s.push(v)
	}
}

func (s *solver) addFunc(v int32, f callgraph.FuncID) {
	if f == callgraph.FuncInvalid {
		return
	}
	k := s.slotOf(v)
	if orBit(&s.fns[k], &s.dFns[k], int(f)) {
		s.push(v)
	}
}

// flow adds the members of (t, f) that dst lacks to dst's value and
// delta, queueing dst if it grew.
func (s *solver) flow(dst int32, t, f []uint64) {
	if len(t) == 0 && len(f) == 0 {
		return
	}
	k := s.slotOf(dst)
	grewT := orWords(&s.tags[k], &s.dTags[k], t)
	grewF := orWords(&s.fns[k], &s.dFns[k], f)
	if grewT || grewF {
		s.push(dst)
	}
}

// addEdge instantiates a copy edge src→dst and pushes src's whole
// current value across it; later deltas follow via dynHead.
func (s *solver) addEdge(src, dst int32) {
	s.dynDst = append(s.dynDst, dst)
	s.dynNext = append(s.dynNext, s.dynHead[src]-1)
	s.dynHead[src] = int32(len(s.dynDst))
	if k := s.slot[src]; k != 0 {
		s.flow(dst, s.tags[k], s.fns[k])
	}
}

// drain visits queued nodes in rounds until none is queued.
func (s *solver) drain() {
	for len(s.work) > 0 {
		cur := s.work
		s.work = s.spare[:0]
		for _, v := range cur {
			s.queued[v] = false
			s.visit(v)
		}
		s.spare = cur
	}
}

// visit propagates node v's delta: each new tag instantiates v's
// pointer loads and stores, each new function its indirect calls,
// and the whole delta flows along v's copy edges.
func (s *solver) visit(v int32) {
	s.steps++
	k := s.slot[v]
	dt, df := s.dTags[k], s.dFns[k]
	s.dTags[k], s.dFns[k] = nil, nil
	if cx := s.cx[s.cxOff[v]:s.cxOff[v+1]]; len(cx) > 0 {
		forBits(dt, func(t int32) {
			for _, c := range cx {
				switch c & 3 {
				case cxLoad:
					s.addEdge(s.tagBase+t, c>>2)
				case cxStore:
					s.addEdge(c>>2, s.tagBase+t)
				}
			}
		})
		forBits(df, func(f int32) {
			for _, c := range cx {
				// A fallback call is already bound to every addressed
				// function, which covers every function address-of
				// can name.
				if c&3 == cxCall && !s.calls[c>>2].fallback {
					call := &s.calls[c>>2]
					s.bind(call.fid, call.in, callgraph.FuncID(f), s.addEdge)
				}
			}
		})
	}
	for _, w := range s.edges[s.edgeOff[v]:s.edgeOff[v+1]] {
		s.flow(w, dt, df)
	}
	for e := s.dynHead[v] - 1; e >= 0; e = s.dynNext[e] {
		s.flow(s.dynDst[e], dt, df)
	}
	// Recycle the delta buffers unless v grew again meanwhile.
	if s.dTags[k] == nil {
		s.dTags[k] = dt[:0]
	}
	if s.dFns[k] == nil {
		s.dFns[k] = df[:0]
	}
}

// orBit sets bit i in set, and in delta if it was new.
func orBit(set, delta *[]uint64, i int) bool {
	w, b := i/64, uint64(1)<<(uint(i)%64)
	if w < len(*set) && (*set)[w]&b != 0 {
		return false
	}
	*set = grow(*set, w+1)
	(*set)[w] |= b
	*delta = grow(*delta, w+1)
	(*delta)[w] |= b
	return true
}

// orWords adds src's members missing from set to set and delta. Words
// are only appended when they gain a bit, so both stay trimmed.
func orWords(set, delta *[]uint64, src []uint64) bool {
	changed := false
	for i, x := range src {
		if i < len(*set) {
			x &^= (*set)[i]
		}
		if x == 0 {
			continue
		}
		*set = grow(*set, i+1)
		(*set)[i] |= x
		*delta = grow(*delta, i+1)
		(*delta)[i] |= x
		changed = true
	}
	return changed
}

func grow(ws []uint64, n int) []uint64 {
	for len(ws) < n {
		ws = append(ws, 0)
	}
	return ws
}

func forBits(ws []uint64, f func(int32)) {
	for i, w := range ws {
		for w != 0 {
			f(int32(i*64 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// tagSet views node v's solved tags as a TagSet.
func (s *solver) tagSet(v int32) ir.TagSet {
	return ir.TagSetOfWords(s.tags[s.slot[v]])
}

// targetNames resolves node v's function set to sorted names (nil when
// empty). Ids intern module function order, not lexicographic order,
// so the names are sorted explicitly to keep every downstream
// iteration deterministic.
func (s *solver) targetNames(v int32) []string {
	var names []string
	forBits(s.fns[s.slot[v]], func(f int32) {
		names = append(names, s.cg.Name(callgraph.FuncID(f)))
	})
	sort.Strings(names)
	return names
}

// narrow installs the computed sets: pointer-op tag lists shrink to
// the address's points-to set (intersected with the existing
// visibility-limited set), and indirect calls learn their possible
// targets. An empty points-to set leaves the op alone: programs that
// manufacture pointers from arbitrary integers are outside the
// modeled subset, so no set shrinks on the strength of an empty
// result. The rewrites are also recorded positionally so an analysis
// cache can replay them on an unchanged projection.
func (s *solver) narrow() []cache.FuncNarrowing {
	var rec []cache.FuncNarrowing
	for i, fn := range s.funcs {
		fid := callgraph.FuncID(i)
		fnRec := cache.FuncNarrowing{Name: fn.Name}
		for bi, b := range fn.Blocks {
			for j := range b.Instrs {
				in := &b.Instrs[j]
				switch in.Op {
				case ir.OpPLoad, ir.OpPStore:
					pts := s.tagSet(s.reg(fid, in.A))
					if pts.IsEmpty() {
						continue
					}
					if in.Tags().IsTop() {
						in.SetTags(pts)
					} else {
						in.SetTags(in.Tags().Intersect(pts))
					}
					fnRec.Ops = append(fnRec.Ops, cache.NarrowOp{Block: bi, Index: j, Tags: in.Tags().Clone()})
				case ir.OpJsr:
					if in.Callee() != "" {
						continue
					}
					if ts := s.targetNames(s.reg(fid, in.A)); ts != nil {
						in.SetTargets(ts)
						fnRec.Ops = append(fnRec.Ops, cache.NarrowOp{Block: bi, Index: j, Targets: append([]string(nil), ts...)})
					}
				}
			}
		}
		if len(fnRec.Ops) > 0 {
			rec = append(rec, fnRec)
		}
	}
	return rec
}
