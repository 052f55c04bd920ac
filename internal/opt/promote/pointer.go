package promote

import (
	"sort"

	"regpromo/internal/cfg"
	"regpromo/internal/ir"
)

// promotePointer implements §3.3: it finds memory references whose
// base (address) register is invariant in a loop and where the only
// accesses in the loop to the tags those references may touch are
// through that same invariant base register, then promotes the
// referenced cell into a register using the same lift/copy/demote
// rewriting as scalar promotion.
//
// Loop-invariant code motion is expected to have hoisted the address
// computations out of the loop already (the paper notes the algorithm
// "relies on loop-invariant code motion to identify the loop-invariant
// base registers"); here invariance is checked directly: the base
// register has no definition inside the loop.
func promotePointer(m *ir.Module, fn *ir.Func, forest *cfg.LoopForest, opts Options) Stats {
	var stats Stats
	for _, l := range forest.PreorderLoops() {
		stats.Add(promotePointerInLoop(fn, l, opts))
	}
	return stats
}

// group is one promotion candidate: all pointer ops in the loop using
// the same base register and access width.
type group struct {
	base   ir.Reg
	size   int32
	tags   ir.TagSet
	ops    []*ir.Instr
	stored bool
	bad    bool
}

func promotePointerInLoop(fn *ir.Func, l *cfg.Loop, opts Options) Stats {
	var stats Stats

	// Registers defined inside the loop are not invariant.
	defined := make(map[ir.Reg]bool)
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.RegInvalid {
				defined[d] = true
			}
		}
	}

	// Group pointer ops by invariant base register. Iterate blocks
	// in id order so group discovery (and therefore pad-load order)
	// is deterministic.
	groups := make(map[ir.Reg]*group)
	var order []ir.Reg
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpPLoad && in.Op != ir.OpPStore {
				continue
			}
			base := in.A
			if defined[base] {
				continue
			}
			g := groups[base]
			if g == nil {
				g = &group{base: base, size: in.Size}
				groups[base] = g
				order = append(order, base)
			}
			if in.Size != g.size {
				g.bad = true
				continue
			}
			g.tags = g.tags.Union(in.Tags())
			g.ops = append(g.ops, in)
			if in.Op == ir.OpPStore {
				g.stored = true
			}
		}
	}
	if len(groups) == 0 {
		return stats
	}

	// Disqualify groups whose tags any other access in the loop can
	// reach: explicit scalar ops, calls, pointer ops with a
	// different (or non-invariant) base.
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			var touches ir.TagSet
			var owner *group
			switch in.Op {
			case ir.OpSLoad, ir.OpCLoad, ir.OpSStore:
				touches = ir.NewTagSet(in.Tag)
			case ir.OpPLoad, ir.OpPStore:
				touches = in.Tags()
				if !defined[in.A] {
					owner = groups[in.A]
				}
			case ir.OpJsr:
				touches = in.Mods().Union(in.Refs())
			default:
				continue
			}
			for _, base := range order {
				g := groups[base]
				if g == owner {
					continue
				}
				if touches.IsTop() || touches.Intersects(g.tags) {
					g.bad = true
				}
			}
		}
	}

	// A pStore through a base register whose value could equal
	// another group's base would alias; conservatively, any two
	// groups with intersecting tag sets disqualify each other.
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			a, b := groups[order[i]], groups[order[j]]
			if a.tags.Intersects(b.tags) {
				a.bad = true
				b.bad = true
			}
		}
	}

	for _, base := range order {
		g := groups[base]
		if g.bad || len(g.ops) == 0 || g.tags.IsTop() || g.tags.IsEmpty() {
			continue
		}
		// The base register must be available at the landing pad:
		// with a single definition outside the loop this holds
		// whenever the program ever enters the loop. Conservatively
		// require the pad to be dominated by... the base has no def
		// in the loop and every use in the loop sees the same value
		// that reached the pad, so the pad load reads the same cell
		// the first iteration would.
		v := fn.NewReg()
		calls := collectCallFacts(l)
		insertBeforeTerminator(l.Pad, ir.Instr{Op: ir.OpPLoad, Dst: v, A: base, Size: g.size, Synth: true}.WithAux(ir.Aux{Tags: g.tags}))
		stats.LoadsInserted++
		demoted := !opts.SkipUnwrittenStores || g.stored
		if demoted {
			for _, x := range l.Exits {
				insertAtHead(x, ir.Instr{Op: ir.OpPStore, A: base, B: v, Size: g.size, Synth: true}.WithAux(ir.Aux{Tags: g.tags}))
				stats.StoresInserted++
			}
		}
		body := l.Blocks
		stats.Regions = append(stats.Regions, Region{
			Func:        fn.Name,
			Tag:         ir.TagInvalid,
			Tags:        g.tags,
			Body:        body,
			Pad:         l.Pad,
			Exits:       append([]*ir.Block(nil), l.Exits...),
			Size:        int(g.size),
			Stored:      g.stored,
			Demoted:     demoted,
			PromotedReg: v,
			Calls:       calls,
		})
		for _, in := range g.ops {
			if in.Op == ir.OpPLoad {
				*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: v}
			} else {
				*in = ir.Instr{Op: ir.OpCopy, Dst: v, A: in.B}
			}
			stats.RefsRewritten++
		}
		stats.PointerPromotions++
	}
	return stats
}
