package certify

import (
	"regpromo/internal/ir"
)

// effects is one function's independently derived MOD/REF bounds.
// The lower sets contain only locations the function *provably* may
// touch (witnessed by a syntactic access); the upper sets contain
// every location it could possibly touch. A sound interprocedural
// summary S therefore satisfies lower ⊆ S ⊆ (anything ⊇ upper is
// also fine — S may be wider than upper only through ⊤), which is
// exactly what the certificate obligations test against.
type effects struct {
	lowerMod, lowerRef ir.TagSet
	upperMod, upperRef ir.TagSet
}

// Oracle is the verifier's deliberately independent alias analysis:
// purely syntactic base/tag-class reasoning over the IL, sharing no
// code or results with analysis/pointsto or analysis/modref. A bug in
// those analyses therefore cannot vouch for itself — the oracle
// re-derives what it can from the instructions alone and the verifier
// compares the promotion's claims against these bounds.
type Oracle struct {
	m *ir.Module

	// universe is the set every untraceable pointer access may reach:
	// address-taken tags plus heap site tags (§4: only address-taken
	// tags appear in pointer-op tag sets).
	universe ir.TagSet

	fx map[string]*effects

	// indirectMod/indirectRef are the upper effects of an indirect
	// call: the union over every addressed function.
	indirectMod, indirectRef ir.TagSet
}

// NewOracle derives the per-function effect bounds for m. Synthesized
// spill code (Instr.Synth) is excluded throughout: the summaries the
// promoter recorded predate promotion, and every synthesized boundary
// write either mirrors a non-synthetic store the walk already counted
// or writes back an unmodified value — so skipping it keeps the lower
// bounds comparable to the claims without losing any real effect.
func NewOracle(m *ir.Module) *Oracle {
	o := &Oracle{m: m, fx: make(map[string]*effects, len(m.Funcs))}
	for _, t := range m.Tags.All() {
		if t.AddrTaken || t.Kind == ir.TagHeap {
			o.universe.Add(t.ID)
		}
	}

	type edge struct{ caller, callee string }
	var edges []edge
	for _, fn := range m.FuncsInOrder() {
		fx := &effects{}
		o.fx[fn.Name] = fx
		tr := newTracer(fn)
		for _, b := range fn.ReachableBlocks() {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Synth {
					continue
				}
				switch in.Op {
				case ir.OpSStore:
					fx.lowerMod.Add(in.Tag)
					fx.upperMod.Add(in.Tag)
				case ir.OpSLoad, ir.OpCLoad:
					fx.lowerRef.Add(in.Tag)
					fx.upperRef.Add(in.Tag)
				case ir.OpPLoad:
					set, definite, known := tr.trace(in.A, 0)
					o.fold(&fx.lowerRef, &fx.upperRef, set, definite, known)
				case ir.OpPStore:
					set, definite, known := tr.trace(in.A, 0)
					o.fold(&fx.lowerMod, &fx.upperMod, set, definite, known)
				case ir.OpJsr:
					edges = append(edges, edge{fn.Name, in.Callee()})
				}
			}
		}
	}

	// Close the bounds over the call structure. Direct calls to
	// defined functions propagate both bounds; indirect calls may
	// reach any addressed function (upper only — no single callee is
	// provable); out-of-module callees use the runtime's own
	// intrinsic behaviour, not the analyses' model of it.
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			caller := o.fx[e.caller]
			if e.callee == "" {
				for _, name := range o.m.AddressedFuncs {
					if g := o.fx[name]; g != nil {
						changed = g.upperMod.UnionInto(&caller.upperMod) || changed
						changed = g.upperRef.UnionInto(&caller.upperRef) || changed
					}
				}
				continue
			}
			if g := o.fx[e.callee]; g != nil {
				changed = g.lowerMod.UnionInto(&caller.lowerMod) || changed
				changed = g.lowerRef.UnionInto(&caller.lowerRef) || changed
				changed = g.upperMod.UnionInto(&caller.upperMod) || changed
				changed = g.upperRef.UnionInto(&caller.upperRef) || changed
				continue
			}
			em, er := o.intrinsicUpper(e.callee)
			changed = em.UnionInto(&caller.upperMod) || changed
			changed = er.UnionInto(&caller.upperRef) || changed
		}
	}
	for _, name := range m.AddressedFuncs {
		if g := o.fx[name]; g != nil {
			g.upperMod.UnionInto(&o.indirectMod)
			g.upperRef.UnionInto(&o.indirectRef)
		}
	}
	return o
}

// fold merges one pointer access's resolution into the bounds:
// a definitely resolved base contributes to both, an approximately
// resolved one (several possible AddrOf defs) to the upper bound
// only, and an untraceable one widens the upper bound to the
// address-taken universe.
func (o *Oracle) fold(lower, upper *ir.TagSet, set ir.TagSet, definite, known bool) {
	switch {
	case definite:
		set.UnionInto(lower)
		set.UnionInto(upper)
	case known:
		set.UnionInto(upper)
	default:
		o.universe.UnionInto(upper)
	}
}

// intrinsicUpper models out-of-module callees from the interpreter's
// own dispatch (internal/interp), the ground truth — not from the
// MOD/REF intrinsic table the verifier must stay independent of. The
// print/alloc intrinsics touch no program-visible tags; print_str
// reads through its pointer argument; anything else is unknown.
func (o *Oracle) intrinsicUpper(name string) (mods, refs ir.TagSet) {
	switch name {
	case "print_int", "print_char", "print_double", "malloc", "free":
		return ir.TagSet{}, ir.TagSet{}
	case "print_str":
		return ir.TagSet{}, o.universe
	}
	return ir.TopSet(), ir.TopSet()
}

// Effects returns the oracle's bounds for the named function; ok is
// false for functions not defined in the module.
func (o *Oracle) Effects(name string) (lowerMod, lowerRef, upperMod, upperRef ir.TagSet, ok bool) {
	fx := o.fx[name]
	if fx == nil {
		return ir.TagSet{}, ir.TagSet{}, ir.TagSet{}, ir.TagSet{}, false
	}
	return fx.lowerMod, fx.lowerRef, fx.upperMod, fx.upperRef, true
}

// instrFX bounds one instruction's own effects.
type instrFX struct {
	lowerMod, lowerRef ir.TagSet
	upperMod, upperRef ir.TagSet
}

// instrEffects derives the effect bounds of a single instruction in
// the function tr was built for, independent of the instruction's own
// claimed Tags/Mods/Refs fields wherever a claim is involved: pointer
// ops are resolved by base tracing, calls by the callee's derived
// summary.
func (o *Oracle) instrEffects(tr *tracer, in *ir.Instr) instrFX {
	var fx instrFX
	switch in.Op {
	case ir.OpSStore:
		fx.lowerMod = ir.NewTagSet(in.Tag)
		fx.upperMod = fx.lowerMod
	case ir.OpSLoad, ir.OpCLoad:
		fx.lowerRef = ir.NewTagSet(in.Tag)
		fx.upperRef = fx.lowerRef
	case ir.OpPLoad:
		set, definite, known := tr.trace(in.A, 0)
		o.fold(&fx.lowerRef, &fx.upperRef, set, definite, known)
	case ir.OpPStore:
		set, definite, known := tr.trace(in.A, 0)
		o.fold(&fx.lowerMod, &fx.upperMod, set, definite, known)
	case ir.OpJsr:
		switch {
		case in.Callee() == "":
			fx.upperMod = o.indirectMod
			fx.upperRef = o.indirectRef
		default:
			if g := o.fx[in.Callee()]; g != nil {
				fx.lowerMod, fx.lowerRef = g.lowerMod, g.lowerRef
				fx.upperMod, fx.upperRef = g.upperMod, g.upperRef
			} else {
				fx.upperMod, fx.upperRef = o.intrinsicUpper(in.Callee())
			}
		}
	}
	return fx
}

// tracer resolves pointer bases syntactically within one function by
// walking unique-definition chains of copies, address materializations
// and in-object pointer arithmetic.
//
// The definitions of r are defs[defStart[r]:defStart[r+1]], in
// compressed sparse rows.
type tracer struct {
	defStart []int32
	defs     []*ir.Instr
}

func newTracer(fn *ir.Func) *tracer {
	n := fn.NumRegs
	ints := make([]int32, 2*n+1)
	t := &tracer{defStart: ints[:n+1]}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.RegInvalid && int(d) < n {
				t.defStart[d+1]++
			}
		}
	}
	for r := 0; r < n; r++ {
		t.defStart[r+1] += t.defStart[r]
	}
	t.defs = make([]*ir.Instr, t.defStart[n])
	cursor := ints[n+1:]
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.RegInvalid && int(d) < n {
				t.defs[t.defStart[d]+cursor[d]] = in
				cursor[d]++
			}
		}
	}
	return t
}

// maxTraceDepth bounds def-chain walks (defensive; copy chains are
// acyclic in verified IL, but the tracer must terminate regardless).
const maxTraceDepth = 64

// trace resolves the object(s) register r can point at. definite
// reports the chain resolved to exactly the returned tags on every
// path (safe as a lower bound: an access through r provably touches a
// returned tag — IL from UB-free sources never crosses object bounds
// via pointer arithmetic); known without definite means the returned
// set covers every possibility (upper bound only); neither means the
// base is untraceable.
func (t *tracer) trace(r ir.Reg, depth int) (set ir.TagSet, definite, known bool) {
	if depth > maxTraceDepth || r < 0 || int(r) >= len(t.defStart)-1 {
		return ir.TagSet{}, false, false
	}
	ds := t.defs[t.defStart[r]:t.defStart[r+1]]
	switch len(ds) {
	case 0:
		// Parameter or undefined: nothing syntactic to say.
		return ir.TagSet{}, false, false
	case 1:
		in := ds[0]
		switch in.Op {
		case ir.OpCopy:
			return t.trace(in.A, depth+1)
		case ir.OpAddrOf:
			if in.Callee() != "" || in.Tag == ir.TagInvalid {
				return ir.TagSet{}, false, false
			}
			return ir.NewTagSet(in.Tag), true, true
		case ir.OpAdd, ir.OpSub:
			// In-object pointer arithmetic: when exactly one operand
			// resolves to an object, the result stays inside it (tags
			// name whole objects, and UB-free sources never index out
			// of bounds). Both-resolve is ambiguous — give up.
			sa, da, ka := t.trace(in.A, depth+1)
			sb, db, kb := t.trace(in.B, depth+1)
			switch {
			case ka && !kb:
				return sa, da, true
			case kb && !ka:
				return sb, db, true
			}
			return ir.TagSet{}, false, false
		}
		return ir.TagSet{}, false, false
	default:
		// Several defs: resolvable only when every one is a direct
		// address materialization — then the union is a sound upper
		// bound, but no single tag is provable.
		var u ir.TagSet
		for _, in := range ds {
			if in.Op != ir.OpAddrOf || in.Callee() != "" || in.Tag == ir.TagInvalid {
				return ir.TagSet{}, false, false
			}
			u.Add(in.Tag)
		}
		return u, false, true
	}
}
