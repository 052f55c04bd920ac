package cfg

import "regpromo/internal/ir"

// Normalize gives every loop an explicit landing pad and dedicated
// exit blocks, matching the shape the paper's compiler builds
// automatically (§3.2), and returns fresh dominator and loop
// structures for the normalized graph.
//
// After Normalize:
//   - every loop header has exactly one predecessor outside the loop,
//     the landing pad, which branches unconditionally to the header;
//   - every edge leaving a loop lands in a block whose predecessors
//     are all inside that loop (the loop's exit blocks).
//
// Promotion inserts its lifted loads in pads and its lifted stores in
// exit blocks.
func Normalize(fn *ir.Func) (*DomTree, *LoopForest) {
	for {
		fn.RemoveUnreachable()
		dom := Dominators(fn)
		forest := FindLoops(fn, dom)
		changed := false
		for _, l := range forest.Loops {
			if ensureLandingPad(fn, l) {
				changed = true
			}
		}
		if !changed {
			for _, l := range forest.Loops {
				if ensureExitBlocks(fn, l, forest) {
					changed = true
				}
			}
		}
		if !changed {
			// Record pads now that the shape is stable.
			for _, l := range forest.Loops {
				l.Pad = landingPadOf(l)
			}
			return dom, forest
		}
	}
}

// landingPadOf returns the unique outside predecessor of the loop
// header once normalization has established it.
func landingPadOf(l *Loop) *ir.Block {
	var pad *ir.Block
	for _, p := range l.Header.Preds {
		if !l.Contains(p) {
			pad = p
		}
	}
	return pad
}

// ensureLandingPad gives l a dedicated preheader. It reports whether
// the CFG changed.
func ensureLandingPad(fn *ir.Func, l *Loop) bool {
	var outside []*ir.Block
	for _, p := range l.Header.Preds {
		if !l.Contains(p) {
			outside = append(outside, p)
		}
	}
	entryIsHeader := l.Header == fn.Entry
	if !entryIsHeader && len(outside) == 1 && len(outside[0].Succs) == 1 {
		return false // already a dedicated pad
	}
	pad := fn.NewBlock(l.Header.Label + ".pad")
	pad.Instrs = []ir.Instr{{Op: ir.OpBr}}
	for _, p := range outside {
		p.ReplaceSucc(l.Header, pad)
	}
	ir.AddEdge(pad, l.Header)
	if entryIsHeader {
		fn.Entry = pad
	}
	return true
}

// ensureExitBlocks redirects every loop-leaving edge into a block
// dedicated to this loop. It reports whether the CFG changed.
func ensureExitBlocks(fn *ir.Func, l *Loop, forest *LoopForest) bool {
	changed := false
	for _, x := range l.Exits {
		// Dedicated already: every predecessor inside l, and x is
		// not a loop header (a store inserted into a header would
		// execute per-iteration of that loop).
		dedicated := forest.ByHeader[x.ID] == nil
		for _, p := range x.Preds {
			if !l.Contains(p) {
				dedicated = false
				break
			}
		}
		if dedicated {
			continue
		}
		exit := fn.NewBlock(x.Label + ".exit")
		exit.Instrs = []ir.Instr{{Op: ir.OpBr}}
		for _, p := range append([]*ir.Block(nil), x.Preds...) {
			if l.Contains(p) {
				p.ReplaceSucc(x, exit)
			}
		}
		ir.AddEdge(exit, x)
		changed = true
	}
	return changed
}
