// Package cfg provides control-flow-graph analyses and normalizations
// over the IL: dominators via the Lengauer–Tarjan algorithm [15],
// natural-loop-nest identification (§3.1 step 3 of the paper), and the
// loop landing pads and dedicated exit blocks the promotion rewrite
// relies on (§3.2: "each loop has an explicit landing pad before its
// header and an explicit exit block").
package cfg

import "regpromo/internal/ir"

// DomTree holds immediate-dominator information for one function.
// Every table is indexed by block id and filled once by Dominators.
type DomTree struct {
	// idom[b.ID] is b's immediate dominator (nil for the entry and
	// unreachable blocks).
	idom []*ir.Block
	// The dominator tree in compressed sparse rows: the children of
	// the block with id i are kids[kidStart[i]:kidStart[i+1]], in
	// increasing depth-first number.
	kidStart []int32
	kids     []*ir.Block
	// pre[b.ID] and post[b.ID] number b's entry and exit in a walk of
	// the dominator tree, from 1; both are 0 for unreachable blocks. a
	// dominates b exactly when a's interval encloses b's.
	pre, post []int32
	// order is a reverse-postorder numbering of reachable blocks.
	order []*ir.Block
}

// Idom returns b's immediate dominator (nil for the entry block).
func (d *DomTree) Idom(b *ir.Block) *ir.Block { return d.idom[b.ID] }

// Children returns the dominator-tree children of b, in increasing
// depth-first number. The slice is shared: callers must not modify it.
func (d *DomTree) Children(b *ir.Block) []*ir.Block {
	lo, hi := d.kidStart[b.ID], d.kidStart[b.ID+1]
	return d.kids[lo:hi:hi]
}

// Dominates reports whether a dominates b (reflexively). It compares
// the blocks' dominator-tree walk numbers, so it takes constant time.
func (d *DomTree) Dominates(a, b *ir.Block) bool {
	if a == b {
		return true
	}
	pb := d.pre[b.ID]
	return pb != 0 && d.pre[a.ID] <= pb && d.post[b.ID] <= d.post[a.ID]
}

// ReversePostorder returns reachable blocks in reverse postorder.
func (d *DomTree) ReversePostorder() []*ir.Block { return d.order }

// Dominators computes the dominator tree of fn using the
// Lengauer–Tarjan algorithm with simple path compression. Blocks must
// be densely numbered (fn.Renumber).
//
// Every walk is iterative, and all the int32 tables, the tree's and
// the scratch ones alike, are carved from one allocation; the block
// pointers come from a second.
func Dominators(fn *ir.Func) *DomTree {
	n := len(fn.Blocks)
	ptrs := make([]*ir.Block, 4*n)
	ints := make([]int32, 13*n+1)
	take := func(k int) []int32 {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	d := &DomTree{
		idom:     ptrs[:n:n],
		pre:      take(n),
		post:     take(n),
		kidStart: take(n + 1),
	}
	dfn := take(n) // block id -> dfs number + 1 (0 = unreached)
	// Tables by dfs number.
	parent, semi := take(n), take(n)
	ancestor, label := take(n), take(n)
	idom := take(n)
	bucketHead, bucketNext := take(n), take(n)
	next := take(n) // a dfs frame's next successor; later a cursor by block id
	stack := take(n)

	// Depth-first numbering from the entry, successors in edge order.
	// The same walk yields the postorder.
	vertex := ptrs[n : n : 2*n]
	postorder := ptrs[3*n : 3*n : 4*n]
	vertex = append(vertex, fn.Entry)
	dfn[fn.Entry.ID] = 1
	parent[0] = -1
	stack[0] = 0
	for sp := 1; sp > 0; {
		v := stack[sp-1]
		b := vertex[v]
		if int(next[v]) < len(b.Succs) {
			s := b.Succs[next[v]]
			next[v]++
			if dfn[s.ID] == 0 {
				w := int32(len(vertex))
				dfn[s.ID] = w + 1
				parent[w] = v
				semi[w] = w
				vertex = append(vertex, s)
				stack[sp] = w
				sp++
			}
			continue
		}
		postorder = append(postorder, b)
		sp--
	}
	m := int32(len(vertex))

	// Union-find with path compression on dfs numbers, tracking the
	// minimum-semidominator vertex on the path.
	for i := int32(0); i < m; i++ {
		ancestor[i] = -1
		label[i] = i
		idom[i] = -1
		bucketHead[i] = -1
	}
	eval := func(v int32) int32 {
		if ancestor[v] == -1 {
			return label[v]
		}
		// Compress the path from v to just below its forest root,
		// rootmost first.
		sp := 0
		for x := v; ancestor[ancestor[x]] != -1; x = ancestor[x] {
			stack[sp] = x
			sp++
		}
		for sp > 0 {
			sp--
			x := stack[sp]
			a := ancestor[x]
			if semi[label[a]] < semi[label[x]] {
				label[x] = label[a]
			}
			ancestor[x] = ancestor[a]
		}
		return label[v]
	}

	// Buckets are linked lists threaded through bucketNext. The order
	// a bucket is drained in does not matter: each member's idom
	// candidate depends only on the forest, not on earlier members.
	for w := m - 1; w >= 1; w-- {
		b := vertex[w]
		for _, p := range b.Preds {
			if dfn[p.ID] == 0 {
				continue // unreachable predecessor
			}
			u := eval(dfn[p.ID] - 1)
			if semi[u] < semi[w] {
				semi[w] = semi[u]
			}
		}
		bucketNext[w] = bucketHead[semi[w]]
		bucketHead[semi[w]] = w
		pw := parent[w]
		ancestor[w] = pw
		for v := bucketHead[pw]; v != -1; v = bucketNext[v] {
			if u := eval(v); semi[u] < semi[v] {
				idom[v] = u
			} else {
				idom[v] = pw
			}
		}
		bucketHead[pw] = -1
	}
	for w := int32(1); w < m; w++ {
		if idom[w] != semi[w] {
			idom[w] = idom[idom[w]]
		}
	}

	// The tree, children in increasing dfs number.
	kidStart := d.kidStart
	for w := int32(1); w < m; w++ {
		kidStart[vertex[idom[w]].ID+1]++
	}
	for i := 0; i < n; i++ {
		kidStart[i+1] += kidStart[i]
	}
	cursor := next
	copy(cursor, kidStart[:n])
	d.kids = ptrs[2*n : 2*n+int(m)-1 : 2*n+int(m)-1]
	for w := int32(1); w < m; w++ {
		b, ib := vertex[w], vertex[idom[w]]
		d.idom[b.ID] = ib
		d.kids[cursor[ib.ID]] = b
		cursor[ib.ID]++
	}

	// Number the tree walk for Dominates.
	copy(cursor, kidStart[:n])
	clock := int32(1)
	d.pre[fn.Entry.ID] = clock
	stack[0] = int32(fn.Entry.ID)
	for sp := 1; sp > 0; {
		id := stack[sp-1]
		clock++
		if cursor[id] < kidStart[id+1] {
			c := int32(d.kids[cursor[id]].ID)
			cursor[id]++
			d.pre[c] = clock
			stack[sp] = c
			sp++
			continue
		}
		d.post[id] = clock
		sp--
	}

	// Reverse postorder for iteration orders elsewhere.
	for i, j := 0, len(postorder)-1; i < j; i, j = i+1, j-1 {
		postorder[i], postorder[j] = postorder[j], postorder[i]
	}
	d.order = postorder[:len(postorder):len(postorder)]
	return d
}

// IterativeDominators computes immediate dominators with the classic
// iterative data-flow algorithm. It exists as an independent oracle
// for property-testing the Lengauer–Tarjan implementation.
func IterativeDominators(fn *ir.Func) map[*ir.Block]*ir.Block {
	// Reverse postorder.
	seen := make(map[*ir.Block]bool)
	var post []*ir.Block
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
		post = append(post, b)
	}
	walk(fn.Entry)
	rpo := make([]*ir.Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	rpoNum := make(map[*ir.Block]int, len(rpo))
	for i, b := range rpo {
		rpoNum[b] = i
	}

	idom := make(map[*ir.Block]*ir.Block, len(rpo))
	idom[fn.Entry] = fn.Entry
	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	out := make(map[*ir.Block]*ir.Block, len(rpo))
	for _, b := range rpo {
		if b == fn.Entry {
			out[b] = nil
		} else {
			out[b] = idom[b]
		}
	}
	return out
}
