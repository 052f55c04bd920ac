package promote

import (
	"sort"

	"regpromo/internal/cfg"
	"regpromo/internal/ir"
)

// Throttling implements the §3.4 direction the paper takes from Carr:
// "beyond some point, the memory accesses removed by the
// transformation were balanced by the spills added during register
// allocation. He adopted a bin-packing discipline to throttle the
// promotion process. As we extend our work, we will undoubtedly
// encounter the same problem and need a similar solution."
//
// The discipline here is a simple bin-packer: each loop gets a budget
// of registers (the machine supply minus an estimate of the loop's
// existing register demand minus a safety margin); lifted tags are
// ranked by their static reference count inside the loop, and only as
// many as fit the budget are promoted.

// pressureMargin reserves registers for loop control, address
// arithmetic, and scratch values the estimate cannot see.
const pressureMargin = 4

// estimateLoopDemand approximates how many registers the loop already
// needs: registers live across the loop boundary (defined outside,
// used inside, or defined inside and used outside) plus the widest
// single block's definition count as a scratch proxy.
func estimateLoopDemand(fn *ir.Func, l *cfg.Loop) int {
	definedIn := make(map[ir.Reg]bool)
	usedIn := make(map[ir.Reg]bool)
	var buf [8]ir.Reg
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.RegInvalid {
				definedIn[d] = true
			}
			for _, u := range in.Uses(buf[:0]) {
				usedIn[u] = true
			}
		}
	}
	demand := 0
	for _, b := range fn.Blocks {
		if l.Contains(b) {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.RegInvalid && usedIn[d] && !definedIn[d] {
				demand++ // flows into the loop
				usedIn[d] = false
			}
			for _, u := range in.Uses(buf[:0]) {
				if definedIn[u] {
					demand++ // flows out of the loop
					definedIn[u] = false
				}
			}
		}
	}
	return demand
}

// refCount counts the scalar references to tag inside l (the ranking
// key for the bin-packer: more references, more benefit).
func refCount(l *cfg.Loop, tag ir.TagID) int {
	n := 0
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpSLoad, ir.OpCLoad, ir.OpSStore:
				if in.Tag == tag {
					n++
				}
			}
		}
	}
	return n
}

// throttleLift shrinks a loop's lift set to its register budget,
// keeping the most-referenced tags. A zero or negative budget
// suppresses promotion in the loop entirely.
func throttleLift(fn *ir.Func, l *cfg.Loop, lift ir.TagSet, limit int) ir.TagSet {
	if limit <= 0 || lift.IsEmpty() {
		return lift
	}
	budget := limit - estimateLoopDemand(fn, l) - pressureMargin
	if budget >= lift.Len() {
		return lift
	}
	if budget <= 0 {
		return ir.TagSet{}
	}
	ids := append([]ir.TagID(nil), lift.IDs()...)
	sort.Slice(ids, func(i, j int) bool {
		ci, cj := refCount(l, ids[i]), refCount(l, ids[j])
		if ci != cj {
			return ci > cj
		}
		return ids[i] < ids[j]
	})
	return ir.NewTagSet(ids[:budget]...)
}
