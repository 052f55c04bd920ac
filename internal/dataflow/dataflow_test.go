package dataflow

import (
	"testing"

	"regpromo/internal/ir"
)

// buildFunc constructs a function from an adjacency list: edges[i]
// lists the successor ids of block i, block 0 is the entry.
func buildFunc(edges [][]int) *ir.Func {
	fn := &ir.Func{Name: "t"}
	blocks := make([]*ir.Block, len(edges))
	for i := range edges {
		blocks[i] = fn.NewBlock("")
	}
	fn.Entry = blocks[0]
	cond := fn.NewReg()
	for i, succs := range edges {
		b := blocks[i]
		switch len(succs) {
		case 0:
			b.Instrs = []ir.Instr{{Op: ir.OpRet, A: ir.RegInvalid}}
		case 1:
			b.Instrs = []ir.Instr{{Op: ir.OpBr}}
		default:
			b.Instrs = []ir.Instr{{Op: ir.OpCBr, A: cond}}
		}
		for _, s := range succs {
			ir.AddEdge(b, blocks[s])
		}
	}
	return fn
}

// diamondAndLoop is the canonical awkward shape: a diamond feeding a
// loop feeding an exit.
//
//	  0
//	 / \
//	1   2
//	 \ /
//	  3 ◄─┐
//	  │   │
//	  4 ──┘
//	  │
//	  5
func diamondAndLoop() *ir.Func {
	return buildFunc([][]int{{1, 2}, {3}, {3}, {4}, {3, 5}, {}})
}

func TestReversePostorderDiamondAndLoop(t *testing.T) {
	fn := diamondAndLoop()
	rpo := ReversePostorder(fn)
	if len(rpo) != len(fn.Blocks) {
		t.Fatalf("rpo has %d blocks, want %d", len(rpo), len(fn.Blocks))
	}
	if rpo[0] != fn.Entry {
		t.Fatalf("rpo must start at entry, got B%d", rpo[0].ID)
	}
	pos := make(map[ir.BlockID]int, len(rpo))
	for i, b := range rpo {
		if _, dup := pos[b.ID]; dup {
			t.Fatalf("B%d appears twice", b.ID)
		}
		pos[b.ID] = i
	}
	// Every forward (non-back) edge must go left to right: the only
	// edge allowed to point backward in this CFG is the loop edge 4→3.
	for _, b := range fn.Blocks {
		for _, s := range b.Succs {
			if pos[s.ID] <= pos[b.ID] && !(b.ID == 4 && s.ID == 3) {
				t.Errorf("edge B%d→B%d goes backward in RPO", b.ID, s.ID)
			}
		}
	}
}

func TestWorklistDedupAndRankOrder(t *testing.T) {
	w := newWorklist([]int{3, 0, 2, 1})
	for _, id := range []int{0, 2, 1, 2, 0, 3} { // duplicates on purpose
		w.push(id)
	}
	var got []int
	for {
		id, ok := w.pop()
		if !ok {
			break
		}
		got = append(got, id)
	}
	want := []int{1, 3, 2, 0} // ascending rank
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v (duplicates must collapse)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	for id, q := range w.queued {
		if q {
			t.Fatalf("item %d still marked queued after draining", id)
		}
	}
}

// naiveSolve is the reference fixpoint: apply transfer to every block
// over and over until a full sweep changes nothing. Any worklist
// strategy must converge to the same facts (the framework is
// monotone, so the least fixpoint is unique).
func naiveSolve(fn *ir.Func, transfer func(b *ir.Block) bool) {
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			if transfer(b) {
				changed = true
			}
		}
	}
}

// reachTransfer builds the forward "ancestor blocks" analysis over a
// bitmask lattice: out[b] = {b} ∪ ⋃_{p∈preds} out[p]. Union is
// monotone, so the least fixpoint is exactly reachability from entry
// through each block.
func reachTransfer(out []uint64) func(b *ir.Block) bool {
	return func(b *ir.Block) bool {
		v := uint64(1) << uint(b.ID)
		for _, p := range b.Preds {
			v |= out[p.ID]
		}
		if v == out[b.ID] {
			return false
		}
		out[b.ID] = v
		return true
	}
}

func TestSolveBlocksForwardConvergence(t *testing.T) {
	fn := diamondAndLoop()

	got := make([]uint64, len(fn.Blocks))
	steps := SolveBlocks(fn, Forward, reachTransfer(got))

	want := make([]uint64, len(fn.Blocks))
	naiveSolve(fn, reachTransfer(want))

	for id := range got {
		if got[id] != want[id] {
			t.Errorf("B%d: worklist fixpoint %b, naive fixpoint %b", id, got[id], want[id])
		}
	}
	// Block 5 is reached through the diamond and the loop: everything
	// is its ancestor.
	if got[5] != 0b111111 {
		t.Errorf("out[5] = %b, want 111111", got[5])
	}
	// In RPO the only re-queues come from the loop edge 4→3; the
	// whole solve must stay near one sweep, not near the quadratic
	// worst case.
	if max := 2 * len(fn.Blocks); steps > max {
		t.Errorf("converged in %d steps, want ≤ %d", steps, max)
	}
}

func TestSolveBlocksBackwardConvergence(t *testing.T) {
	fn := diamondAndLoop()

	// Backward "descendant blocks": in[b] = {b} ∪ ⋃_{s∈succs} in[s].
	transfer := func(in []uint64) func(b *ir.Block) bool {
		return func(b *ir.Block) bool {
			v := uint64(1) << uint(b.ID)
			for _, s := range b.Succs {
				v |= in[s.ID]
			}
			if v == in[b.ID] {
				return false
			}
			in[b.ID] = v
			return true
		}
	}

	got := make([]uint64, len(fn.Blocks))
	SolveBlocks(fn, Backward, transfer(got))
	want := make([]uint64, len(fn.Blocks))
	naiveSolve(fn, transfer(want))

	for id := range got {
		if got[id] != want[id] {
			t.Errorf("B%d: worklist fixpoint %b, naive fixpoint %b", id, got[id], want[id])
		}
	}
	// From the entry every block is reachable.
	if got[0] != 0b111111 {
		t.Errorf("in[0] = %b, want 111111", got[0])
	}
}
