// Package dataflow provides the shared machinery for the compiler's
// iterative fixpoint computations: reverse-postorder block orderings
// and a priority worklist that drains items in a fixed rank order.
//
// Every analysis in this repository solves a monotone framework over a
// finite lattice, so the fixpoint it reaches is the unique least
// fixpoint regardless of iteration order (Kam & Ullman). The kernel
// therefore only changes *how fast* an analysis converges, never what
// it computes — which is what lets the parallel middle-end and the
// serial pipeline produce byte-identical IL. Forward problems visit
// blocks in reverse postorder (all of a block's forward predecessors
// first), backward problems in postorder; the priority worklist keeps
// re-queued blocks in that same order so a loop body is re-examined
// before the code after the loop.
package dataflow

import "regpromo/internal/ir"

// Postorder returns fn's blocks reachable from Entry in postorder
// (every block after all of its unvisited successors). The traversal
// follows Succs edges in order, matching the hand-rolled orderings the
// individual passes used before this package existed.
func Postorder(fn *ir.Func) []*ir.Block {
	order := make([]*ir.Block, 0, len(fn.Blocks))
	if fn.Entry == nil {
		return order
	}
	seen := make([]bool, len(fn.Blocks))
	type frame struct {
		b    *ir.Block
		next int
	}
	var buf [16]frame
	stack := append(buf[:0], frame{b: fn.Entry})
	seen[fn.Entry.ID] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(top.b.Succs) {
			s := top.b.Succs[top.next]
			top.next++
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		order = append(order, top.b)
		stack = stack[:len(stack)-1]
	}
	return order
}

// ReversePostorder returns fn's reachable blocks in reverse postorder,
// the canonical iteration order for forward dataflow problems.
func ReversePostorder(fn *ir.Func) []*ir.Block {
	po := Postorder(fn)
	for i, j := 0, len(po)-1; i < j; i, j = i+1, j-1 {
		po[i], po[j] = po[j], po[i]
	}
	return po
}

// Direction selects which way facts flow through the CFG.
type Direction int

const (
	// Forward problems propagate facts along Succs edges and visit
	// blocks in reverse postorder.
	Forward Direction = iota
	// Backward problems propagate facts along Preds edges and visit
	// blocks in postorder.
	Backward
)

// worklist is SolveBlocks' deduplicating priority worklist over dense
// item ids. Items drain in ascending rank; pushing an item already
// queued is a no-op, so each pending item is processed once per
// generation.
type worklist struct {
	rank   []int // rank[id] = drain priority of item id
	queued []bool
	heap   []workItem // binary min-heap on rank
}

// newWorklist builds a worklist for items 0..len(rank)-1 where rank[i]
// gives item i's drain priority (lower drains first).
func newWorklist(rank []int) *worklist {
	return &worklist{
		rank:   rank,
		queued: make([]bool, len(rank)),
		heap:   make([]workItem, 0, len(rank)),
	}
}

// push queues id unless it is already pending.
func (w *worklist) push(id int) {
	if w.queued[id] {
		return
	}
	w.queued[id] = true
	// Sift up, as container/heap does, so equal ranks drain in the
	// same order.
	h := append(w.heap, workItem{id: id, rank: w.rank[id]})
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if h[j].rank >= h[i].rank {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	w.heap = h
}

// pop removes and returns the pending item with the lowest rank;
// ok is false when the worklist is empty.
func (w *worklist) pop() (id int, ok bool) {
	h := w.heap
	if len(h) == 0 {
		return 0, false
	}
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift down over h[:n], as container/heap does.
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].rank < h[j].rank {
			j = j2
		}
		if h[j].rank >= h[i].rank {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	w.heap = h[:n]
	w.queued[it.id] = false
	return it.id, true
}

type workItem struct{ id, rank int }

// SolveBlocks iterates transfer over fn's reachable blocks until
// fixpoint. transfer recomputes the block's facts from its current
// inputs and reports whether its outward-facing facts changed; when
// they did, the block's dependents (Succs for Forward, Preds for
// Backward) are re-queued. Blocks are visited — and revisited — in
// reverse postorder for forward problems and postorder for backward
// ones. The number of transfer applications is returned so callers can
// report convergence effort.
func SolveBlocks(fn *ir.Func, dir Direction, transfer func(b *ir.Block) bool) int {
	var order []*ir.Block
	if dir == Forward {
		order = ReversePostorder(fn)
	} else {
		order = Postorder(fn)
	}
	rank := make([]int, len(fn.Blocks))
	for i, b := range order {
		rank[b.ID] = i
	}
	w := newWorklist(rank)
	for _, b := range order {
		w.push(int(b.ID))
	}
	byID := make([]*ir.Block, len(fn.Blocks))
	for _, b := range fn.Blocks {
		byID[b.ID] = b
	}
	steps := 0
	for {
		id, ok := w.pop()
		if !ok {
			return steps
		}
		b := byID[id]
		steps++
		if !transfer(b) {
			continue
		}
		if dir == Forward {
			for _, s := range b.Succs {
				w.push(int(s.ID))
			}
		} else {
			for _, p := range b.Preds {
				w.push(int(p.ID))
			}
		}
	}
}
