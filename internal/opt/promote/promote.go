// Package promote implements register promotion, the paper's central
// transformation (§3). Scalar promotion finds, for every loop, the
// tags referenced only by explicit memory operations (equations
// (1)–(3) of Figure 1), lifts a load of each such tag into the landing
// pad of the outermost loop where it is promotable (equation (4)),
// rewrites the loop-body references into register copies, and demotes
// the value with a store in the loop's exit blocks. Pointer-based
// promotion (§3.3) additionally promotes pLoad/pStore references whose
// base register is loop-invariant when no other access in the loop can
// touch the same storage.
package promote

import (
	"fmt"

	"regpromo/internal/cfg"
	"regpromo/internal/ir"
)

// Options selects promotion variants.
type Options struct {
	// Pointer enables §3.3 promotion of loop-invariant-base
	// pointer references.
	Pointer bool

	// SkipUnwrittenStores suppresses the demotion store at loop
	// exits for tags the loop never writes. The paper's compiler
	// always stores on exit (Figure 2 demotes the load-only tag A
	// into B8); leaving this false reproduces that behaviour, while
	// setting it measures the obvious refinement as an ablation.
	SkipUnwrittenStores bool

	// PressureLimit, when positive, bounds promotion per loop with a
	// bin-packing discipline after Carr [3]: each loop may promote
	// only as many tags as fit the register supply once the loop's
	// estimated demand and a safety margin are subtracted (§3.4).
	// Zero disables throttling, reproducing the paper's unthrottled
	// promoter.
	PressureLimit int
}

// Region records one promoted region. It doubles as the region's
// promotion certificate: enough facts for an independent verifier
// (internal/analysis/certify) to re-prove the promotion sound without
// consulting the analyses that justified it. Exactly one of Tag and
// Tags is meaningful: scalar regions name a single tag, §3.3 pointer
// regions carry the group's may-set.
type Region struct {
	// Func is the enclosing function's name.
	Func string
	// Tag is the promoted scalar location; ir.TagInvalid for a
	// pointer region.
	Tag ir.TagID
	// Tags is the may-set of a pointer region; empty for a scalar
	// region.
	Tags ir.TagSet
	// Body holds the loop-body blocks at promotion time. Later passes
	// may merge or delete blocks, so consumers must ignore pointers
	// that are no longer in the function.
	Body []*ir.Block

	// Pad is the landing-pad block that received the lifted load;
	// every path into the region passes through it. Like Body, the
	// pointer may go stale under later CFG edits.
	Pad *ir.Block
	// Exits are the loop-exit blocks that received (or, when Demoted
	// is false, would have received) the demotion store, in block-ID
	// order at promotion time.
	Exits []*ir.Block
	// Size is the access width of the promoted references, in bytes.
	Size int
	// Stored reports whether the loop writes the promoted location
	// (the lift was read-only otherwise).
	Stored bool
	// Demoted reports whether demotion stores were actually inserted
	// at the exits (false only under Options.SkipUnwrittenStores for
	// an unwritten tag).
	Demoted bool
	// PromotedReg is the virtual register the location was promoted
	// into. Register allocation renames it, so it is only meaningful
	// before regalloc — the pressure analysis runs there.
	PromotedReg ir.Reg
	// Calls records the MOD/REF summary facts of every call inside
	// the region body at promotion time — the alias-analysis claims
	// the promotion relied on, in block-ID/instruction order. The
	// certificate verifier re-derives its own conservative summaries
	// and checks these against them.
	Calls []CallFact
}

// CallFact is one region-body call's claimed summary effects, as
// promotion saw them. Block/Index locate the call at promotion time
// (provenance for certificate diagnostics, not a stable pointer).
type CallFact struct {
	// Block is the label of the containing block.
	Block string
	// Index is the call's instruction index within Block.
	Index int
	// Callee names the direct callee; empty for an indirect call.
	Callee string
	// Mods and Refs are the summary effect sets the call carried.
	Mods ir.TagSet
	Refs ir.TagSet
}

// Stats reports what promotion did.
type Stats struct {
	// ScalarPromotions counts (tag, outermost-loop) regions
	// promoted by the scalar algorithm.
	ScalarPromotions int
	// PointerPromotions counts (base, loop) groups promoted by the
	// §3.3 algorithm.
	PointerPromotions int
	// RefsRewritten counts memory operations converted to copies.
	RefsRewritten int
	// LoadsInserted and StoresInserted count the lifted operations.
	LoadsInserted  int
	StoresInserted int

	// Regions lists every promoted region, for the promotion-
	// invariant checker. Excluded from JSON reports: blocks are
	// cyclic graph nodes, and the counts above already summarize the
	// work done.
	Regions []Region `json:"-"`
}

// Counters is the comparable scalar part of Stats (Regions reduced
// to a count), for tests and logs that compare two runs.
type Counters struct {
	ScalarPromotions  int
	PointerPromotions int
	RefsRewritten     int
	LoadsInserted     int
	StoresInserted    int
	Regions           int
}

// Counters summarizes s as a comparable value.
func (s Stats) Counters() Counters {
	return Counters{
		ScalarPromotions:  s.ScalarPromotions,
		PointerPromotions: s.PointerPromotions,
		RefsRewritten:     s.RefsRewritten,
		LoadsInserted:     s.LoadsInserted,
		StoresInserted:    s.StoresInserted,
		Regions:           len(s.Regions),
	}
}

// Add folds another function's statistics into s. The driver's
// parallel middle end accumulates per-function results with it; the
// fold is commutative, so the accumulation order does not matter.
// (Regions may end up in any order; consumers that need determinism
// group them by function.)
func (s *Stats) Add(o Stats) {
	s.ScalarPromotions += o.ScalarPromotions
	s.PointerPromotions += o.PointerPromotions
	s.RefsRewritten += o.RefsRewritten
	s.LoadsInserted += o.LoadsInserted
	s.StoresInserted += o.StoresInserted
	s.Regions = append(s.Regions, o.Regions...)
}

// Run promotes every function in the module.
func Run(m *ir.Module, opts Options) Stats {
	var total Stats
	for _, fn := range m.FuncsInOrder() {
		total.Add(Func(m, fn, opts))
	}
	return total
}

// Func promotes one function.
func Func(m *ir.Module, fn *ir.Func, opts Options) Stats {
	var stats Stats
	_, forest := cfg.Normalize(fn)
	if len(forest.Loops) == 0 {
		return stats
	}
	info := AnalyzeFunc(m, fn, forest)
	stats.Add(rewriteScalar(fn, forest, info, opts))
	if opts.Pointer {
		stats.Add(promotePointer(m, fn, forest, opts))
	}
	return stats
}

// LoopSets holds the Figure 1 sets for one loop.
type LoopSets struct {
	Loop       *cfg.Loop
	Explicit   ir.TagSet // L_EXPLICIT,  equation (1)
	Ambiguous  ir.TagSet // L_AMBIGUOUS, equation (2)
	Promotable ir.TagSet // L_PROMOTABLE, equation (3)
	Lift       ir.TagSet // L_LIFT, equation (4)
	// Stored is the subset of Explicit actually written in the
	// loop; lifted tags not in Stored need no demotion store.
	Stored ir.TagSet
}

// FuncInfo is the promotion analysis result for one function.
type FuncInfo struct {
	// ByLoop maps each loop to its solved equation sets.
	ByLoop map[*cfg.Loop]*LoopSets
	// Disqualified are tags that may never promote in this function
	// (inconsistent access widths).
	Disqualified ir.TagSet
}

// AnalyzeFunc solves the Figure 1 equations over the loop forest
// without rewriting anything.
func AnalyzeFunc(m *ir.Module, fn *ir.Func, forest *cfg.LoopForest) *FuncInfo {
	info := &FuncInfo{ByLoop: make(map[*cfg.Loop]*LoopSets)}

	// Gather the per-block sets (a simple linear pass, §3.1):
	// B_EXPLICIT from scalar operations, B_AMBIGUOUS from calls and
	// pointer-based operations.
	nBlocks := len(fn.Blocks)
	bExplicit := make([]ir.TagSet, nBlocks)
	bAmbiguous := make([]ir.TagSet, nBlocks)
	bStored := make([]ir.TagSet, nBlocks)
	sizeOf := make(map[ir.TagID]int32)
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpSLoad, ir.OpCLoad, ir.OpSStore:
				bExplicit[b.ID].Add(in.Tag)
				if in.Op == ir.OpSStore {
					bStored[b.ID].Add(in.Tag)
				}
				if prev, seen := sizeOf[in.Tag]; seen && prev != in.Size {
					info.Disqualified.Add(in.Tag)
				} else {
					sizeOf[in.Tag] = in.Size
				}
				if m.Tags.Get(in.Tag).Elem != int(in.Size) {
					info.Disqualified.Add(in.Tag)
				}
			case ir.OpPLoad, ir.OpPStore:
				in.Tags().UnionInto(&bAmbiguous[b.ID])
			case ir.OpJsr:
				in.Mods().UnionInto(&bAmbiguous[b.ID])
				in.Refs().UnionInto(&bAmbiguous[b.ID])
			}
		}
	}

	// Solve per loop, outermost first so equation (4) can subtract
	// the parent's promotable set.
	for _, l := range forest.PreorderLoops() {
		ls := &LoopSets{Loop: l}
		for _, b := range l.Blocks {
			bExplicit[b.ID].UnionInto(&ls.Explicit)   // (1)
			bAmbiguous[b.ID].UnionInto(&ls.Ambiguous) // (2)
			bStored[b.ID].UnionInto(&ls.Stored)
		}
		ls.Promotable = ls.Explicit.Minus(ls.Ambiguous).Minus(info.Disqualified) // (3)
		if l.Parent == nil {
			ls.Lift = ls.Promotable // (4), outermost case
		} else {
			ls.Lift = ls.Promotable.Minus(info.ByLoop[l.Parent].Promotable) // (4)
		}
		info.ByLoop[l] = ls
	}
	return info
}

// rewriteScalar performs the §3.1 steps 5–6 rewrite: one virtual
// register per lifted (tag, loop) region, loads in the landing pad,
// stores in the exit blocks, references converted to copies.
func rewriteScalar(fn *ir.Func, forest *cfg.LoopForest, info *FuncInfo, opts Options) Stats {
	var stats Stats
	for _, l := range forest.PreorderLoops() {
		ls := info.ByLoop[l]
		lift := throttleLift(fn, l, ls.Lift, opts.PressureLimit)
		ids := lift.IDs()
		if len(ids) == 0 {
			continue
		}
		// Snapshot the call-summary facts the promotion decision
		// relied on before rewriting; the certificate verifier checks
		// them against independently derived summaries.
		calls := collectCallFacts(l)
		for _, tag := range ids {
			v := fn.NewReg()
			size := refSize(fn, l, tag)
			if size == 0 {
				continue // no actual references (cannot happen for Lift members)
			}
			// Promote: load into v before entering the loop.
			insertBeforeTerminator(l.Pad, ir.Instr{Op: ir.OpSLoad, Dst: v, Tag: tag, Size: size, Synth: true})
			stats.LoadsInserted++
			// Demote: store at the loop exits. The store goes at the
			// head of the exit block — the block may already contain
			// post-loop code that reads the tag from memory. The
			// paper always demotes; the refinement skips tags the
			// loop never writes.
			demoted := !opts.SkipUnwrittenStores || ls.Stored.Has(tag)
			if demoted {
				for _, x := range l.Exits {
					insertAtHead(x, ir.Instr{Op: ir.OpSStore, A: v, Tag: tag, Size: size, Synth: true})
					stats.StoresInserted++
				}
			}
			stats.Regions = append(stats.Regions, Region{
				Func:        fn.Name,
				Tag:         tag,
				Body:        l.Blocks,
				Pad:         l.Pad,
				Exits:       append([]*ir.Block(nil), l.Exits...),
				Size:        int(size),
				Stored:      ls.Stored.Has(tag),
				Demoted:     demoted,
				PromotedReg: v,
				Calls:       calls,
			})
			// Rewrite every reference in the loop to a copy.
			for _, b := range l.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					switch {
					case (in.Op == ir.OpSLoad || in.Op == ir.OpCLoad) && in.Tag == tag:
						*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: v}
						stats.RefsRewritten++
					case in.Op == ir.OpSStore && in.Tag == tag:
						*in = ir.Instr{Op: ir.OpCopy, Dst: v, A: in.A}
						stats.RefsRewritten++
					}
				}
			}
			stats.ScalarPromotions++
		}
	}
	return stats
}

// collectCallFacts snapshots the claimed MOD/REF summary of every
// call in l's body, in block-ID/instruction order. The snapshot is
// taken before rewriting, so the recorded indices are promotion-time
// provenance, not stable pointers into the final IL.
func collectCallFacts(l *cfg.Loop) []CallFact {
	var facts []CallFact
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpJsr {
				continue
			}
			facts = append(facts, CallFact{
				Block:  b.Label,
				Index:  i,
				Callee: in.Callee(),
				Mods:   in.Mods(),
				Refs:   in.Refs(),
			})
		}
	}
	return facts
}

// refSize finds the access width used for tag inside l.
func refSize(fn *ir.Func, l *cfg.Loop, tag ir.TagID) int32 {
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if (in.Op == ir.OpSLoad || in.Op == ir.OpSStore || in.Op == ir.OpCLoad) && in.Tag == tag {
				return in.Size
			}
		}
	}
	return 0
}

// insertBeforeTerminator places in directly before b's terminator
// (lifted loads go at the end of the landing pad, after any code the
// pad already holds).
func insertBeforeTerminator(b *ir.Block, in ir.Instr) {
	n := len(b.Instrs)
	if n == 0 || !b.Instrs[n-1].Op.IsTerminator() {
		panic(fmt.Sprintf("block %s lacks a terminator", b.Label))
	}
	b.Instrs = append(b.Instrs, ir.Instr{})
	copy(b.Instrs[n:], b.Instrs[n-1:])
	b.Instrs[n-1] = in
}

// insertAtHead places in as b's first instruction (lifted stores go
// at the head of the exit block, before any post-loop code that may
// reference the demoted location).
func insertAtHead(b *ir.Block, in ir.Instr) {
	b.Instrs = append([]ir.Instr{in}, b.Instrs...)
}
