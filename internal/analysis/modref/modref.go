// Package modref implements the paper's interprocedural MOD/REF
// analysis (§4). It limits the tag sets of pointer-based memory
// operations to the address-taken tags visible in each function, then
// computes, for every function, the set of tags it (or any function it
// can call) may modify and may reference, processing call-graph SCCs
// in reverse topological order. The summaries are installed on every
// call instruction's Mods/Refs lists.
//
// The visibility rule for locals follows the paper exactly: the tag of
// a local variable appears only in the tag sets of memory operations
// in descendants of the function that creates it — a local of f can
// only be live while f is on the call stack, so only functions f can
// reach could possibly touch it through a pointer.
//
// MOD/REF is bottom-up compositional — a component's summary is a
// function of its members' bodies, their visible sets, and its callee
// components' summaries — so Analyze memoizes it per SCC in a
// content-addressed cache: each component's key chains those three
// inputs, a hit installs the cached summary without touching the
// component's bodies, and the per-component direct-effect scan runs
// only on misses. After a one-function edit, only the edited
// component and the components that can reach it or be reached from
// it miss; everything else replays.
package modref

import (
	"regpromo/internal/analysis/cache"
	"regpromo/internal/callgraph"
	"regpromo/internal/ir"
	"regpromo/internal/par"
)

// Result holds the per-function analysis summaries. The tables are
// dense slices indexed by the call graph's interned function ids; the
// name-keyed accessors exist for tests and diagnostics.
type Result struct {
	cg *callgraph.Graph

	// mod and ref are the interprocedural summary sets: everything
	// the function or its callees may write / read.
	mod []ir.TagSet
	ref []ir.TagSet

	// visible is the set of tags a pointer-based memory operation
	// appearing in the function may touch: every address-taken
	// global, every heap site tag, and the address-taken locals of
	// the function's call-graph ancestors (itself included).
	visible []ir.TagSet

	// SCCsSolved and SCCsCached count callgraph components whose
	// summary fixpoint this run computed versus replayed from the
	// analysis cache (always solved/0 without a cache).
	SCCsSolved, SCCsCached int
}

// Mod returns the MOD summary of the named (defined) function.
func (r *Result) Mod(fn string) ir.TagSet { return r.mod[r.cg.ID(fn)] }

// Ref returns the REF summary of the named (defined) function.
func (r *Result) Ref(fn string) ir.TagSet { return r.ref[r.cg.ID(fn)] }

// Visible returns the visible-tag set of the named (defined) function.
func (r *Result) Visible(fn string) ir.TagSet { return r.visible[r.cg.ID(fn)] }

// Run performs the analysis on mod, rewriting the tag sets of
// pointer-based operations and the Mods/Refs of calls in place. It is
// idempotent and monotone: a second run (e.g. after points-to
// analysis has shrunk pointer tag sets) only tightens information.
func Run(m *ir.Module, cg *callgraph.Graph) *Result {
	return Analyze(m, cg, nil)
}

// Analyze is Run with SCC-grained memoization: when store is non-nil,
// each callgraph component's summary is keyed by its member bodies
// (post visibility-limiting), member visible sets, and the value
// hashes of its callee components' summaries, and an unchanged key
// installs the cached summary without re-walking the component. The
// visibility pre-passes and the final call-site installation always
// run — they rewrite the module in place and are linear.
func Analyze(m *ir.Module, cg *callgraph.Graph, store *cache.Store) *Result {
	n := cg.NumFuncs()
	r := &Result{
		cg:      cg,
		mod:     make([]ir.TagSet, n),
		ref:     make([]ir.TagSet, n),
		visible: make([]ir.TagSet, n),
	}

	r.computeVisible(m, cg)
	limitPointerOps(m, r)
	demoteRecursiveLocals(m, cg)

	// The salt folds the tag table in its analysis-time state, so it
	// is computed after demoteRecursiveLocals flips Strong bits.
	var salt cache.Key
	var bodyHash []cache.Key
	funcs := m.FuncsInOrder()
	if store != nil {
		salt = cache.ModuleSalt(m)
		// Per-function body hashes are independent; hashing is the bulk
		// of a fully-warm run's cost, so fan it out.
		bodyHash, _ = par.ParallelMap(n, 0, func(i int) (cache.Key, error) {
			return cache.FuncBodyHash(funcs[i]), nil
		})
	}

	// directEffects scans one function's intraprocedural effects,
	// excluding calls. It runs per cache miss only.
	directEffects := func(fn *ir.Func, dm, dr *ir.TagSet) {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpSStore:
					dm.Add(in.Tag)
				case ir.OpPStore:
					in.Tags().UnionInto(dm)
				case ir.OpSLoad, ir.OpCLoad:
					dr.Add(in.Tag)
				case ir.OpPLoad:
					in.Tags().UnionInto(dr)
				}
			}
		}
	}

	// SCC summaries, callees first. Within an SCC all functions get
	// the identical set (§4). compValue chains each component's
	// summary hash into its callers' keys, so a single hit certifies
	// the entire callee subtree unchanged.
	compValue := make([]cache.Key, len(cg.SCCs))
	for ci, comp := range cg.SCCMemberIDs {
		var key cache.Key
		if store != nil {
			h := cache.NewHasher().Key(salt)
			for _, id := range comp {
				h.Key(bodyHash[id]).TagSet(r.visible[id])
			}
			for _, j := range cg.SCCSuccs(ci) {
				h.Key(compValue[j])
			}
			key = h.Sum()
			if e, ok := store.ModRef(key); ok {
				for _, id := range comp {
					r.mod[id] = e.Mod
					r.ref[id] = e.Ref
				}
				compValue[ci] = e.Value
				r.SCCsCached++
				continue
			}
		}

		var cm, cr ir.TagSet
		for _, id := range comp {
			fn := funcs[id]
			directEffects(fn, &cm, &cr)
			for _, b := range fn.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op != ir.OpJsr {
						continue
					}
					r.addCalleeEffects(m, cg, fn.Name, in, ci, &cm, &cr)
				}
			}
		}
		for _, id := range comp {
			r.mod[id] = cm
			r.ref[id] = cr
		}
		r.SCCsSolved++
		value := cache.SummaryValue(cm, cr)
		compValue[ci] = value
		store.PutModRef(key, cm, cr, value)
	}

	// Install summaries on call sites.
	for _, fn := range m.FuncsInOrder() {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != ir.OpJsr {
					continue
				}
				mods, refs := r.callSiteEffects(m, cg, fn.Name, in)
				in.SetEffects(mods, refs)
			}
		}
	}
	return r
}

// computeVisible builds the visible sets per the paper's two rules:
// only address-taken tags enter pointer tag sets, and a local is
// visible only in descendants of its creator.
func (r *Result) computeVisible(m *ir.Module, cg *callgraph.Graph) {
	// Base: address-taken globals and all heap site tags.
	var base ir.TagSet
	ownLocals := make([]ir.TagSet, cg.NumFuncs())
	for _, tag := range m.Tags.All() {
		if !tag.AddrTaken {
			continue
		}
		switch tag.Kind {
		case ir.TagGlobal, ir.TagHeap:
			base.Add(tag.ID)
		case ir.TagLocal:
			ownLocals[cg.ID(tag.Func)].Add(tag.ID)
		}
	}

	// anc[s] = address-taken locals of every function in SCC s or in
	// any SCC that can call into s. Tarjan's order is callees-first,
	// so walking components from the end (callers) toward the start
	// (callees) sees every caller before its callees.
	anc := make([]ir.TagSet, len(cg.SCCs))
	own := make([]ir.TagSet, len(cg.SCCs))
	for i, comp := range cg.SCCs {
		for _, name := range comp {
			ownLocals[cg.ID(name)].UnionInto(&own[i])
		}
	}
	for i := len(cg.SCCs) - 1; i >= 0; i-- {
		own[i].UnionInto(&anc[i])
		for _, name := range cg.SCCs[i] {
			for _, callee := range cg.Callees[name] {
				j := cg.SCCOf(callee)
				if j != i {
					anc[i].UnionInto(&anc[j])
				}
			}
		}
	}
	for _, fn := range m.FuncsInOrder() {
		r.visible[cg.ID(fn.Name)] = base.Union(anc[cg.SCCOf(fn.Name)])
	}
}

// limitPointerOps replaces ⊤ pointer tag sets with the function's
// visible set and intersects already-refined sets with it.
func limitPointerOps(m *ir.Module, r *Result) {
	for _, fn := range m.FuncsInOrder() {
		vis := r.visible[r.cg.ID(fn.Name)]
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != ir.OpPLoad && in.Op != ir.OpPStore {
					continue
				}
				if in.Tags().IsTop() {
					in.SetTags(vis)
				} else {
					in.SetTags(in.Tags().Intersect(vis))
				}
			}
		}
	}
}

// demoteRecursiveLocals clears the Strong bit on address-taken locals
// of functions that can recurse: one tag then stands for many
// activations, so strong updates are impossible (§4).
func demoteRecursiveLocals(m *ir.Module, cg *callgraph.Graph) {
	for _, tag := range m.Tags.All() {
		if tag.Kind == ir.TagLocal && tag.Strong && cg.InCycle(tag.Func) {
			tag.Strong = false
		}
	}
}

// addCalleeEffects accumulates the contribution of one call
// instruction into its caller's in-progress SCC summary. Members of
// the same SCC (component index compIdx) contribute nothing here
// (their direct effects are already in the union being built).
func (r *Result) addCalleeEffects(m *ir.Module, cg *callgraph.Graph, caller string, in *ir.Instr, compIdx int, cm, cr *ir.TagSet) {
	add := func(name string) {
		if id := cg.ID(name); id != callgraph.FuncInvalid && cg.SCCOfID(id) == compIdx {
			return
		}
		if em, er, ok := r.resolved(m, cg, caller, name); ok {
			em.UnionInto(cm)
			er.UnionInto(cr)
		} else {
			ir.TopSet().UnionInto(cm)
			ir.TopSet().UnionInto(cr)
		}
	}
	if in.Callee() != "" {
		add(in.Callee())
		return
	}
	for _, t := range indirectTargets(m, in) {
		add(t)
	}
}

// indirectTargets returns the possible callees of an indirect call:
// the points-to-refined set when available, else every addressed
// function.
func indirectTargets(m *ir.Module, in *ir.Instr) []string {
	if in.Targets() != nil {
		return in.Targets()
	}
	return m.AddressedFuncs
}

// callSiteEffects computes the final Mods/Refs for a call site once
// all summaries exist.
func (r *Result) callSiteEffects(m *ir.Module, cg *callgraph.Graph, caller string, in *ir.Instr) (ir.TagSet, ir.TagSet) {
	if in.Callee() != "" {
		mods, refs, ok := r.resolved(m, cg, caller, in.Callee())
		if !ok {
			return ir.TopSet(), ir.TopSet()
		}
		return mods, refs
	}
	var mods, refs ir.TagSet
	for _, t := range indirectTargets(m, in) {
		em, er, ok := r.resolved(m, cg, caller, t)
		if !ok {
			return ir.TopSet(), ir.TopSet()
		}
		mods = mods.Union(em)
		refs = refs.Union(er)
	}
	return mods, refs
}

// IntrinsicSignature describes the call interface of a runtime
// intrinsic: its argument count and whether it produces a value.
// ok is false for names that are not intrinsics. The table mirrors
// sema.Builtins and the interpreter's dispatch; internal/check lints
// call sites against it.
func IntrinsicSignature(name string) (arity int, returns bool, ok bool) {
	switch name {
	case "print_int", "print_char", "print_double", "print_str", "free":
		return 1, false, true
	case "malloc":
		return 1, true, true
	}
	return 0, false, false
}

// resolved returns the effect sets of a named callee: a computed
// summary for defined functions, the built-in model for intrinsics,
// and ok=false for unknown externals.
func (r *Result) resolved(m *ir.Module, cg *callgraph.Graph, caller, name string) (ir.TagSet, ir.TagSet, bool) {
	if id := cg.ID(name); id != callgraph.FuncInvalid {
		return r.mod[id], r.ref[id], true
	}
	switch name {
	case "print_int", "print_char", "print_double", "malloc", "free":
		// Pure I/O or allocation: touches no program-visible tags.
		return ir.TagSet{}, ir.TagSet{}, true
	case "print_str":
		// Reads through its pointer argument: may reference anything
		// a pointer in the caller may reach.
		return ir.TagSet{}, r.visible[cg.ID(caller)], true
	}
	return ir.TagSet{}, ir.TagSet{}, false
}
