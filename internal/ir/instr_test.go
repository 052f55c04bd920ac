package ir

import (
	"strings"
	"sync"
	"testing"
)

func TestUsesAndDefPerOpcode(t *testing.T) {
	var buf [8]Reg
	cases := []struct {
		in   Instr
		uses []Reg
		def  Reg
	}{
		{Instr{Op: OpLoadI, Dst: 1, Imm: 5}, nil, 1},
		{Instr{Op: OpCopy, Dst: 2, A: 1}, []Reg{1}, 2},
		{Instr{Op: OpAdd, Dst: 3, A: 1, B: 2}, []Reg{1, 2}, 3},
		{Instr{Op: OpSLoad, Dst: 4, Tag: 0, Size: 8}, nil, 4},
		{Instr{Op: OpSStore, A: 4, Tag: 0, Size: 8}, []Reg{4}, RegInvalid},
		{Instr{Op: OpPLoad, Dst: 5, A: 4, Size: 8}, []Reg{4}, 5},
		{Instr{Op: OpPStore, A: 4, B: 5, Size: 8}, []Reg{4, 5}, RegInvalid},
		{Instr{Op: OpBr}, nil, RegInvalid},
		{Instr{Op: OpCBr, A: 6}, []Reg{6}, RegInvalid},
		{Instr{Op: OpRet, A: 7, HasValue: true}, []Reg{7}, RegInvalid},
		{Instr{Op: OpRet, A: RegInvalid}, nil, RegInvalid},
		{Instr{Op: OpJsr, Dst: 3, HasValue: true}.WithAux(Aux{Callee: "f", Args: []Reg{1, 2}}), []Reg{1, 2}, 3},
		{Instr{Op: OpJsr, A: 9, Dst: RegInvalid}.WithAux(Aux{Callee: "", Args: []Reg{1}}), []Reg{9, 1}, RegInvalid},
		{Instr{Op: OpAddrOf, Dst: 8, Tag: 0}, nil, 8},
	}
	for _, c := range cases {
		got := c.in.Uses(buf[:0])
		if len(got) != len(c.uses) {
			t.Fatalf("%s: uses = %v, want %v", c.in.Op, got, c.uses)
		}
		for i := range got {
			if got[i] != c.uses[i] {
				t.Fatalf("%s: uses = %v, want %v", c.in.Op, got, c.uses)
			}
		}
		if d := c.in.Def(); d != c.def {
			t.Fatalf("%s: def = %v, want %v", c.in.Op, d, c.def)
		}
	}
}

func TestJsrWithoutValueHasNoDef(t *testing.T) {
	in := Instr{Op: OpJsr, Dst: 3, HasValue: false}.WithAux(Aux{Callee: "f"})
	if in.Def() != RegInvalid {
		t.Fatal("value-less call must not define a register")
	}
}

func TestMapUsesHandlesOverlappingRenames(t *testing.T) {
	// Swap r1 <-> r2 in one shot: value-based replacement would
	// collapse both operands onto one register.
	in := Instr{Op: OpAdd, Dst: 0, A: 1, B: 2}
	in.MapUses(func(r Reg) Reg {
		switch r {
		case 1:
			return 2
		case 2:
			return 1
		}
		return r
	})
	if in.A != 2 || in.B != 1 {
		t.Fatalf("swap failed: A=%d B=%d", in.A, in.B)
	}
}

func TestReplaceUses(t *testing.T) {
	in := Instr{Op: OpJsr}.WithAux(Aux{Callee: "f", Args: []Reg{1, 2, 1}})
	in.ReplaceUses(1, 9)
	if in.Args()[0] != 9 || in.Args()[1] != 2 || in.Args()[2] != 9 {
		t.Fatalf("args = %v", in.Args())
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := Instr{Op: OpJsr}.WithAux(Aux{Callee: "f", Args: []Reg{1, 2}})
	cp := in.Clone()
	cp.Args()[0] = 99
	if in.Args()[0] == 99 {
		t.Fatal("clone shares Args with original")
	}
}

func TestMayReadWriteMem(t *testing.T) {
	load := Instr{Op: OpSLoad, Tag: 3}
	if !load.MayReadMem().Has(3) || !load.MayWriteMem().IsEmpty() {
		t.Fatal("sLoad effects wrong")
	}
	store := Instr{Op: OpPStore}.WithAux(Aux{Tags: NewTagSet(1, 2)})
	if !store.MayWriteMem().Equal(NewTagSet(1, 2)) || !store.MayReadMem().IsEmpty() {
		t.Fatal("pStore effects wrong")
	}
	call := Instr{Op: OpJsr}.WithAux(Aux{Mods: NewTagSet(1), Refs: NewTagSet(2)})
	if !call.MayWriteMem().Has(1) || !call.MayReadMem().Has(2) {
		t.Fatal("call effects wrong")
	}
}

func TestVerifyCatchesBrokenFunctions(t *testing.T) {
	mk := func(build func(fn *Func)) error {
		fn := &Func{Name: "t"}
		build(fn)
		return VerifyFunc(fn, nil)
	}

	// Well-formed.
	if err := mk(func(fn *Func) {
		b := fn.NewBlock("")
		fn.Entry = b
		b.Instrs = []Instr{{Op: OpRet, A: RegInvalid}}
	}); err != nil {
		t.Fatalf("valid function rejected: %v", err)
	}

	// Missing terminator.
	if err := mk(func(fn *Func) {
		b := fn.NewBlock("")
		fn.Entry = b
		r := fn.NewReg()
		b.Instrs = []Instr{{Op: OpLoadI, Dst: r}}
	}); err == nil {
		t.Fatal("missing terminator accepted")
	}

	// Register out of range.
	if err := mk(func(fn *Func) {
		b := fn.NewBlock("")
		fn.Entry = b
		b.Instrs = []Instr{{Op: OpCopy, Dst: 5, A: 9}, {Op: OpRet, A: RegInvalid}}
	}); err == nil {
		t.Fatal("out-of-range register accepted")
	}

	// cbr with one successor.
	if err := mk(func(fn *Func) {
		b := fn.NewBlock("")
		c := fn.NewBlock("")
		fn.Entry = b
		r := fn.NewReg()
		b.Instrs = []Instr{{Op: OpLoadI, Dst: r}, {Op: OpCBr, A: r}}
		AddEdge(b, c)
		c.Instrs = []Instr{{Op: OpRet, A: RegInvalid}}
	}); err == nil {
		t.Fatal("cbr with one successor accepted")
	}

	// Asymmetric edge (succ without pred back-pointer).
	if err := mk(func(fn *Func) {
		b := fn.NewBlock("")
		c := fn.NewBlock("")
		fn.Entry = b
		b.Instrs = []Instr{{Op: OpBr}}
		b.Succs = append(b.Succs, c) // no pred entry
		c.Instrs = []Instr{{Op: OpRet, A: RegInvalid}}
	}); err == nil {
		t.Fatal("asymmetric edge accepted")
	}
}

func TestFormatInstr(t *testing.T) {
	var tt TagTable
	g := tt.NewTag("g", TagGlobal, "", 8, 8)
	in := Instr{Op: OpSLoad, Dst: 3, Tag: g.ID, Size: 8}
	if got := FormatInstr(&in, &tt, nil); !strings.Contains(got, "[g]") {
		t.Fatalf("format = %q", got)
	}
	call := Instr{Op: OpJsr}.WithAux(Aux{Callee: "f", Args: []Reg{1}, Mods: NewTagSet(g.ID), Refs: TagSet{}})
	if got := FormatInstr(&call, &tt, nil); !strings.Contains(got, "@f(r1)") || !strings.Contains(got, "mod [g]") {
		t.Fatalf("call format = %q", got)
	}
}

func TestRemoveUnreachable(t *testing.T) {
	fn := &Func{Name: "t"}
	a := fn.NewBlock("")
	bb := fn.NewBlock("")
	dead := fn.NewBlock("")
	fn.Entry = a
	a.Instrs = []Instr{{Op: OpBr}}
	AddEdge(a, bb)
	bb.Instrs = []Instr{{Op: OpRet, A: RegInvalid}}
	dead.Instrs = []Instr{{Op: OpBr}}
	AddEdge(dead, bb)
	fn.RemoveUnreachable()
	if len(fn.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(fn.Blocks))
	}
	for _, p := range bb.Preds {
		if p == dead {
			t.Fatal("dead predecessor not pruned")
		}
	}
}

func TestReachableBlocksPreorder(t *testing.T) {
	// entry → {left, right}, left → join, right → {join, left},
	// join → entry: recursive preorder visits successors in edge
	// order, so right's edge to the already-seen left is skipped.
	fn := &Func{Name: "t"}
	entry, left, right, join, dead := fn.NewBlock(""), fn.NewBlock(""), fn.NewBlock(""), fn.NewBlock(""), fn.NewBlock("")
	fn.Entry = entry
	AddEdge(entry, left)
	AddEdge(entry, right)
	AddEdge(left, join)
	AddEdge(right, join)
	AddEdge(right, left)
	AddEdge(join, entry)
	AddEdge(dead, join)
	var got []string
	for _, b := range fn.ReachableBlocks() {
		got = append(got, b.Label)
	}
	if want := "B0 B1 B3 B2"; strings.Join(got, " ") != want {
		t.Fatalf("preorder = %v, want %s", got, want)
	}

	// Only join lost a predecessor; every other list is left as is.
	leftPreds := left.Preds
	fn.RemoveUnreachable()
	if len(fn.Blocks) != 4 || len(join.Preds) != 2 {
		t.Fatalf("blocks = %d, join preds = %d; want 4 and 2", len(fn.Blocks), len(join.Preds))
	}
	if &left.Preds[0] != &leftPreds[0] {
		t.Fatal("a predecessor list that lost nothing was rebuilt")
	}
}

// TestRemoveUnreachableConcurrentFuncs: the parallel middle end prunes
// different functions at once; their walks draw distinct epochs and
// stamp only their own blocks.
func TestRemoveUnreachableConcurrentFuncs(t *testing.T) {
	const n = 8
	fns := make([]*Func, n)
	for i := range fns {
		fn := &Func{Name: "t"}
		a, live, dead := fn.NewBlock(""), fn.NewBlock(""), fn.NewBlock("")
		fn.Entry = a
		a.Instrs = []Instr{{Op: OpBr}}
		AddEdge(a, live)
		live.Instrs = []Instr{{Op: OpRet, A: RegInvalid}}
		dead.Instrs = []Instr{{Op: OpBr}}
		AddEdge(dead, live)
		fns[i] = fn
	}
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(fn *Func) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				fn.RemoveUnreachable()
			}
		}(fn)
	}
	wg.Wait()
	for _, fn := range fns {
		if len(fn.Blocks) != 2 || len(fn.Blocks[1].Preds) != 1 {
			t.Fatalf("blocks = %d, preds = %d; want 2 and 1", len(fn.Blocks), len(fn.Blocks[1].Preds))
		}
	}
}
