package regalloc

import (
	"strconv"

	"regpromo/internal/ir"
)

// insertSpills rewrites the function so that every spilled register
// class lives in a dedicated frame slot: each use loads the slot into
// a fresh temporary, each definition stores a fresh temporary back.
// The inserted sLoad/sStore operations are real memory traffic and
// count exactly like any other load or store — spilling is how
// over-eager promotion loses (§5, water).
func insertSpills(fn *ir.Func, spills []ir.Reg, g *graph, tags ir.TagAlloc) Stats {
	var stats Stats
	find := g.find

	// Spilled representatives, as a set. The set and the per-class
	// tables below come from the round's scratch.
	sc := g.sc
	spillSet := sc.bitset(g.n)
	for _, r := range spills {
		spillSet.add(r)
	}
	spilled := func(r ir.Reg) bool { return spillSet.has(find(r)) }

	// A spilled class whose only definition is a rematerializable
	// instruction gets no slot: each use re-issues the definition,
	// copied out here before the body is rewritten.
	nDefs := resize(&sc.spillDefs, g.n)
	for r := ir.Reg(0); int(r) < g.n; r++ {
		if rep := find(r); spillSet.has(rep) {
			nDefs[rep] += g.defs[r]
		}
	}
	remat := resize(&sc.spillRemat, g.n)
	for r := ir.Reg(0); int(r) < g.n; r++ {
		if rep := find(r); spillSet.has(rep) && nDefs[rep] == 1 && g.remat[r] != nil {
			def := g.remat[r].Clone()
			remat[rep] = &def
		}
	}

	// Per spilled (non-remat) class, a frame slot.
	slot := resize(&sc.slots, g.n)
	for _, r := range spills {
		if remat[r] != nil {
			continue
		}
		tag := tags.NewTag(
			fn.Name+".spill#"+strconv.Itoa(len(fn.Locals)),
			ir.TagSpill, fn.Name, 8, 8)
		tag.Strong = true
		slot[r] = tag.ID
		fn.Locals = append(fn.Locals, tag.ID)
	}
	stats.Spilled = len(spills)

	// The caller passes the representative registers of a coalesced
	// graph together with its find function, so member registers of
	// a spilled class resolve to the class slot. Each block is built
	// in the scratch's instruction buffer and copied back over its
	// own slice, which grows at most once.
	type reload struct{ rep, t ir.Reg }
	var loaded []reload
	for _, b := range fn.Blocks {
		out := sc.instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]

			// Loads (or rematerializations) for spilled uses, one per
			// class per instruction.
			loaded = loaded[:0]
			in.MapUses(func(u ir.Reg) ir.Reg {
				if !spilled(u) {
					return u
				}
				rep := find(u)
				for _, l := range loaded {
					if l.rep == rep {
						return l.t
					}
				}
				t := fn.NewReg()
				if remat[rep] != nil {
					def := *remat[rep]
					def.Dst = t
					out = append(out, def)
				} else {
					out = append(out, ir.Instr{Op: ir.OpSLoad, Dst: t, Tag: slot[rep], Size: 8})
					stats.SpillLoads++
				}
				loaded = append(loaded, reload{rep, t})
				return t
			})

			// Store after a spilled definition. A rematerialized
			// class deletes its definition instead: every use has
			// been replaced by a re-issued copy, so the original
			// (pure, operand-free) instruction is dead — keeping it
			// would preserve the very live range that failed to
			// color, and the allocator would pick it again forever.
			d := in.Def()
			if d != ir.RegInvalid && spilled(d) {
				rep := find(d)
				if remat[rep] != nil {
					continue
				}
				t := fn.NewReg()
				in.Dst = t
				out = append(out, in)
				out = append(out, ir.Instr{Op: ir.OpSStore, A: t, Tag: slot[rep], Size: 8})
				stats.SpillStores++
				continue
			}
			out = append(out, in)
		}
		b.Instrs = append(b.Instrs[:0], out...)
		sc.instrs = out
	}

	// A spilled parameter receives its argument in the register at
	// entry; store it to the slot immediately. (Parameters are never
	// rematerializable: their definition is the call itself.)
	var entryStores []ir.Instr
	for _, p := range fn.Params {
		rep := find(p)
		if spillSet.has(rep) {
			if remat[rep] != nil {
				continue
			}
			entryStores = append(entryStores, ir.Instr{Op: ir.OpSStore, A: p, Tag: slot[rep], Size: 8})
			stats.SpillStores++
		}
	}
	if len(entryStores) > 0 {
		fn.Entry.Instrs = append(entryStores, fn.Entry.Instrs...)
	}
	return stats
}
