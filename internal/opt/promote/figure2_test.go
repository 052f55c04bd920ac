package promote

import (
	"testing"

	"regpromo/internal/cfg"
	"regpromo/internal/ir"
)

// buildFigure2 constructs the paper's Figure 2 example: a triply
// nested loop over tags A, B, C.
//
//	B0:  (pad of outer loop)
//	B1:  sStore [C] r0 ; jsr mod/ref {A}    — outer header
//	B2:  (pad of middle loop)
//	B3:  sStore [B] r2                      — middle header
//	B4:  jsr ref {B}                        — pad of inner loop
//	B5:  sLoad [A] -> r3                    — inner header
//	B6:  cbr -> B5 | B7                     — inner latch
//	B7:  cbr -> B3 | B8                     — middle latch
//	B8:  cbr -> B1 | B9                     — middle exit, outer latch
//	B9:  sStore [C] rc' ... ret             — outer exit
//
// Expected (paper §3.2): A promotable in the two inner loops, lifted
// around the middle loop (load in B4's... in B2, store in B8); B never
// promotable; C promotable in the outer loop (load in B0, store in B9).
func buildFigure2(t *testing.T) (*ir.Module, *ir.Func, map[string]ir.TagID) {
	t.Helper()
	m := ir.NewModule()
	a := m.Tags.NewTag("A", ir.TagGlobal, "", 8, 8)
	b := m.Tags.NewTag("B", ir.TagGlobal, "", 8, 8)
	c := m.Tags.NewTag("C", ir.TagGlobal, "", 8, 8)
	a.Strong, b.Strong, c.Strong = true, true, true

	fn := &ir.Func{Name: "fig2"}
	blocks := make([]*ir.Block, 10)
	for i := range blocks {
		blocks[i] = fn.NewBlock("")
	}
	fn.Entry = blocks[0]
	r0 := fn.NewReg()
	r2 := fn.NewReg()
	r3 := fn.NewReg()
	cond := fn.NewReg()

	setSuccs := func(i int, succs ...int) {
		for _, s := range succs {
			ir.AddEdge(blocks[i], blocks[s])
		}
	}
	br := ir.Instr{Op: ir.OpBr}
	cbr := ir.Instr{Op: ir.OpCBr, A: cond}

	blocks[0].Instrs = []ir.Instr{br}
	setSuccs(0, 1)
	blocks[1].Instrs = []ir.Instr{
		{Op: ir.OpSStore, Tag: c.ID, A: r0, Size: 8},
		ir.Instr{Op: ir.OpJsr, Dst: ir.RegInvalid}.WithAux(ir.Aux{Callee: "ext", Mods: ir.NewTagSet(a.ID), Refs: ir.NewTagSet(a.ID)}),
		br,
	}
	setSuccs(1, 2)
	blocks[2].Instrs = []ir.Instr{br}
	setSuccs(2, 3)
	blocks[3].Instrs = []ir.Instr{
		{Op: ir.OpSStore, Tag: b.ID, A: r2, Size: 8},
		br,
	}
	setSuccs(3, 4)
	blocks[4].Instrs = []ir.Instr{
		ir.Instr{Op: ir.OpJsr, Dst: ir.RegInvalid}.WithAux(ir.Aux{Callee: "ext2", Mods: ir.TagSet{}, Refs: ir.NewTagSet(b.ID)}),
		br,
	}
	setSuccs(4, 5)
	blocks[5].Instrs = []ir.Instr{
		{Op: ir.OpSLoad, Tag: a.ID, Dst: r3, Size: 8},
		br,
	}
	setSuccs(5, 6)
	blocks[6].Instrs = []ir.Instr{cbr}
	setSuccs(6, 5, 7)
	blocks[7].Instrs = []ir.Instr{cbr}
	setSuccs(7, 3, 8)
	blocks[8].Instrs = []ir.Instr{cbr}
	setSuccs(8, 1, 9)
	blocks[9].Instrs = []ir.Instr{{Op: ir.OpRet, A: ir.RegInvalid}}

	if err := ir.VerifyFunc(fn, &m.Tags); err != nil {
		t.Fatal(err)
	}
	return m, fn, map[string]ir.TagID{"A": a.ID, "B": b.ID, "C": c.ID}
}

func TestFigure2EquationSets(t *testing.T) {
	m, fn, tags := buildFigure2(t)
	_, forest := cfg.Normalize(fn)
	if len(forest.Loops) != 3 {
		t.Fatalf("want 3 loops, got %d", len(forest.Loops))
	}
	info := AnalyzeFunc(m, fn, forest)

	// Identify loops by nesting depth.
	var outer, middle, inner *cfg.Loop
	for _, l := range forest.Loops {
		switch l.Depth {
		case 1:
			outer = l
		case 2:
			middle = l
		case 3:
			inner = l
		}
	}
	if outer == nil || middle == nil || inner == nil {
		t.Fatal("missing loop depths")
	}

	A, B, C := tags["A"], tags["B"], tags["C"]

	o := info.ByLoop[outer]
	if !o.Explicit.Has(A) || !o.Explicit.Has(B) || !o.Explicit.Has(C) {
		t.Fatalf("outer explicit = %s", o.Explicit.Format(&m.Tags))
	}
	if !o.Ambiguous.Has(A) || !o.Ambiguous.Has(B) || o.Ambiguous.Has(C) {
		t.Fatalf("outer ambiguous = %s", o.Ambiguous.Format(&m.Tags))
	}
	if !o.Promotable.Equal(ir.NewTagSet(C)) {
		t.Fatalf("outer promotable = %s, want {C}", o.Promotable.Format(&m.Tags))
	}
	if !o.Lift.Equal(ir.NewTagSet(C)) {
		t.Fatalf("outer lift = %s, want {C}", o.Lift.Format(&m.Tags))
	}

	mi := info.ByLoop[middle]
	if !mi.Promotable.Equal(ir.NewTagSet(A)) {
		t.Fatalf("middle promotable = %s, want {A}", mi.Promotable.Format(&m.Tags))
	}
	if !mi.Lift.Equal(ir.NewTagSet(A)) {
		t.Fatalf("middle lift = %s, want {A}", mi.Lift.Format(&m.Tags))
	}

	in := info.ByLoop[inner]
	if !in.Promotable.Equal(ir.NewTagSet(A)) {
		t.Fatalf("inner promotable = %s, want {A}", in.Promotable.Format(&m.Tags))
	}
	// Equation (4): A already promotable in the parent, so the inner
	// loop lifts nothing.
	if !in.Lift.IsEmpty() {
		t.Fatalf("inner lift = %s, want {}", in.Lift.Format(&m.Tags))
	}
}

func TestFigure2Rewrite(t *testing.T) {
	m, fn, tags := buildFigure2(t)
	stats := Func(m, fn, Options{})
	if stats.ScalarPromotions != 2 {
		t.Fatalf("want 2 promotions (A around middle, C around outer), got %d", stats.ScalarPromotions)
	}
	if err := ir.VerifyFunc(fn, &m.Tags); err != nil {
		t.Fatal(err)
	}

	A, B, C := tags["A"], tags["B"], tags["C"]
	// Count remaining explicit memory references per tag.
	refs := map[ir.TagID][]ir.Op{}
	_, forest := cfg.Normalize(fn)
	depthOf := func(b *ir.Block) int { return forest.Depth(b) }
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpSLoad || in.Op == ir.OpSStore {
				refs[in.Tag] = append(refs[in.Tag], in.Op)
				switch in.Tag {
				case A:
					// A's remaining ops are the lifted load/store:
					// both must sit at outer-loop depth (inside B1's
					// loop, outside the middle loop).
					if d := depthOf(b); d != 1 {
						t.Fatalf("A's lifted op at depth %d, want 1", d)
					}
				case C:
					if d := depthOf(b); d != 0 {
						t.Fatalf("C's lifted op at depth %d, want 0", d)
					}
				}
			}
		}
	}
	// A: one lifted load + one lifted store; original sLoad became a copy.
	if len(refs[A]) != 2 {
		t.Fatalf("A refs = %v, want [load store]", refs[A])
	}
	// B: untouched single store.
	if len(refs[B]) != 1 || refs[B][0] != ir.OpSStore {
		t.Fatalf("B refs = %v", refs[B])
	}
	// C: one lifted load + one lifted store outside the loop nest.
	if len(refs[C]) != 2 {
		t.Fatalf("C refs = %v", refs[C])
	}
}
