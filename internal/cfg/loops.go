package cfg

import (
	"math/bits"
	"slices"

	"regpromo/internal/ir"
)

// Loop is one natural loop. Loops with the same header are merged, so
// each header identifies exactly one loop; the paper refers to loops
// by their header's block number the same way.
type Loop struct {
	Header *ir.Block
	// Blocks lists the loop's blocks, header included, in id order.
	// Passes that emit or move code iterate in this order. Callers
	// must not modify it.
	Blocks []*ir.Block
	// set holds the ids of Blocks as a bitset.
	set []uint64
	// Parent is the innermost enclosing loop, nil for outermost
	// loops.
	Parent *Loop
	// Children are the loops directly nested inside this one.
	Children []*Loop
	// Depth is 1 for outermost loops.
	Depth int
	// Pad is the loop's landing pad (unique predecessor of the
	// header from outside the loop); set by EnsureLandingPads.
	Pad *ir.Block
	// Exits are the blocks outside the loop that loop edges leave
	// to, in id order; after EnsureExitBlocks each has predecessors
	// only inside the loop.
	Exits []*ir.Block
}

// Contains reports whether b belongs to the loop. A block created
// after the loop was found belongs to none.
func (l *Loop) Contains(b *ir.Block) bool {
	w := uint(b.ID) / 64
	return w < uint(len(l.set)) && l.set[w]&(1<<(uint(b.ID)%64)) != 0
}

func (l *Loop) add(b *ir.Block) { l.set[b.ID/64] |= 1 << (uint(b.ID) % 64) }

// LoopForest is the loop nesting structure of one function.
type LoopForest struct {
	// Roots are the outermost loops.
	Roots []*Loop
	// Loops lists every loop, outer before inner: by size descending,
	// then by header id.
	Loops []*Loop
	// ByHeader[b.ID] is the loop headed by b (nil when b heads none).
	ByHeader []*Loop
	// InnermostOf[b.ID] is the innermost loop containing b (nil when
	// b is outside all loops).
	InnermostOf []*Loop
}

// Depth returns the loop nesting depth of b (0 outside all loops).
func (f *LoopForest) Depth(b *ir.Block) int {
	if int(b.ID) < len(f.InnermostOf) {
		if l := f.InnermostOf[b.ID]; l != nil {
			return l.Depth
		}
	}
	return 0
}

// FindLoops identifies natural loops from back edges (edges whose
// head dominates their tail), merges loops sharing a header, and
// builds the nesting forest. Blocks must be densely numbered, as for
// Dominators.
func FindLoops(fn *ir.Func, dom *DomTree) *LoopForest {
	n := len(fn.Blocks)
	rpo := dom.ReversePostorder()

	// Count the headers first, so the loops, their bitsets and the
	// forest's slices each come from one allocation.
	nl := 0
	var hdr []bool
	for _, b := range rpo {
		for _, s := range b.Succs {
			if dom.Dominates(s, b) {
				if hdr == nil {
					hdr = make([]bool, n)
				}
				if !hdr[s.ID] {
					hdr[s.ID] = true
					nl++
				}
			}
		}
	}
	// slots holds ByHeader, InnermostOf, Loops, and then Roots with
	// every loop's Children.
	slots := make([]*Loop, 2*n+2*nl)
	f := &LoopForest{ByHeader: slots[:n:n], InnermostOf: slots[n : 2*n : 2*n]}
	if nl == 0 {
		return f
	}
	f.Loops = slots[2*n : 2*n : 2*n+nl]
	words := (n + 63) / 64
	loops := make([]Loop, nl)
	sets := make([]uint64, nl*words)

	// Collect back edges in reverse postorder for determinism.
	var buf [32]*ir.Block
	stack := buf[:0]
	for _, b := range rpo {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue
			}
			loop := f.ByHeader[s.ID]
			if loop == nil {
				k := len(f.Loops)
				loop = &loops[k]
				loop.Header = s
				loop.set = sets[k*words : (k+1)*words : (k+1)*words]
				loop.add(s)
				f.ByHeader[s.ID] = loop
				f.Loops = append(f.Loops, loop)
			}
			// Grow the natural loop: all blocks that reach the back
			// edge's tail without passing through the header.
			if !loop.Contains(b) {
				loop.add(b)
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range x.Preds {
					if !loop.Contains(p) {
						loop.add(p)
						stack = append(stack, p)
					}
				}
			}
		}
	}

	// Block lists in id order, read off the bitsets into one backing
	// array.
	total := 0
	for _, w := range sets {
		total += bits.OnesCount64(w)
	}
	members := make([]*ir.Block, total)
	for _, l := range f.Loops {
		k := 0
		for i, w := range l.set {
			for ; w != 0; w &= w - 1 {
				members[k] = fn.Blocks[i*64+bits.TrailingZeros64(w)]
				k++
			}
		}
		l.Blocks, members = members[:k:k], members[k:]
	}

	// Order loops by size descending so parents precede children.
	slices.SortFunc(f.Loops, func(a, b *Loop) int {
		if len(a.Blocks) != len(b.Blocks) {
			return len(b.Blocks) - len(a.Blocks)
		}
		return int(a.Header.ID) - int(b.Header.ID)
	})

	// Nesting: the parent of l is the smallest loop properly
	// containing l's header. Loops are sorted by size descending, so
	// it is the nearest earlier loop that does. Roots and each loop's
	// children, in Loops order, share the last nl slots.
	ints := make([]int32, 2*nl+n)
	nkids, ends, stamp := ints[:nl], ints[nl:2*nl], ints[2*nl:]
	nroots := 0
	for i, l := range f.Loops {
		for j := i - 1; j >= 0; j-- {
			if f.Loops[j].Contains(l.Header) {
				l.Parent = f.Loops[j]
				nkids[j]++
				break
			}
		}
		if l.Parent == nil {
			l.Depth = 1
			nroots++
		} else {
			l.Depth = l.Parent.Depth + 1
		}
	}
	kids := slots[2*n+nl:]
	f.Roots, kids = kids[:0:nroots], kids[nroots:]
	for i, l := range f.Loops {
		if c := nkids[i]; c > 0 {
			l.Children, kids = kids[:0:c], kids[c:]
		}
	}
	for _, l := range f.Loops {
		if l.Parent == nil {
			f.Roots = append(f.Roots, l)
		} else {
			l.Parent.Children = append(l.Parent.Children, l)
		}
	}

	// Innermost loop per block: loops sorted big→small, so later
	// assignment wins.
	for _, l := range f.Loops {
		for _, b := range l.Blocks {
			f.InnermostOf[b.ID] = l
		}
	}

	// Exits: outside-successors of loop blocks, into one shared
	// backing array. stamp[s.ID] holds the number (from 1) of the last
	// loop s was collected for.
	var exits []*ir.Block
	for i, l := range f.Loops {
		for _, b := range l.Blocks {
			for _, s := range b.Succs {
				if !l.Contains(s) && stamp[s.ID] != int32(i+1) {
					stamp[s.ID] = int32(i + 1)
					exits = append(exits, s)
				}
			}
		}
		ends[i] = int32(len(exits))
	}
	start := int32(0)
	for i, l := range f.Loops {
		if end := ends[i]; end > start {
			l.Exits = exits[start:end:end]
			slices.SortFunc(l.Exits, func(a, b *ir.Block) int { return int(a.ID) - int(b.ID) })
			start = end
		}
	}
	return f
}

// PreorderLoops returns the loops outermost-first (parents before
// children), which is the evaluation order for equation (4).
func (f *LoopForest) PreorderLoops() []*Loop {
	out := make([]*Loop, 0, len(f.Loops))
	for _, r := range f.Roots {
		out = appendPreorder(out, r)
	}
	return out
}

func appendPreorder(out []*Loop, l *Loop) []*Loop {
	out = append(out, l)
	for _, c := range l.Children {
		out = appendPreorder(out, c)
	}
	return out
}
