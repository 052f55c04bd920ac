package ir

import "testing"

// buildCloneFixture makes a two-function module with a loop edge,
// a global initializer with a relocation, a direct and an indirect
// call, a function address, and pointer memory ops.
func buildCloneFixture() *Module {
	m := NewModule()
	g := m.Tags.NewTag("g", TagGlobal, "", 8, 8)
	m.Inits = append(m.Inits, GlobalInit{
		Tag:    g.ID,
		Data:   []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Relocs: []Reloc{{Offset: 0, Target: g.ID, Addend: 4}},
	})

	callee := &Func{Name: "callee", NumRegs: 2, Params: []Reg{0}, HasVarRet: true}
	cb := callee.NewBlock("")
	cb.Instrs = append(cb.Instrs, Instr{Op: OpRet, A: 0, HasValue: true})
	callee.Entry = cb
	m.AddFunc(callee)

	fn := &Func{Name: "main", NumRegs: 5, HasVarRet: true}
	local := m.Tags.NewTag("x", TagLocal, "main", 8, 8)
	fn.Locals = append(fn.Locals, local.ID)
	head := fn.NewBlock("")
	body := fn.NewBlock("")
	exit := fn.NewBlock("")
	head.Instrs = append(head.Instrs,
		Instr{Op: OpLoadI, Dst: 0, Imm: 7},
		Instr{Op: OpCBr, A: 0},
	)
	body.Instrs = append(body.Instrs,
		Instr{Op: OpJsr, Dst: 1, HasValue: true}.WithAux(Aux{Callee: "callee", Args: []Reg{0}}),
		Instr{Op: OpSStore, A: 1, Tag: local.ID, Size: 8},
		Instr{Op: OpAddrOf, Dst: 2}.WithAux(Aux{Callee: "callee"}),
		Instr{Op: OpJsr, A: 2, Dst: RegInvalid}.WithAux(Aux{Args: []Reg{1}, Targets: []string{"callee"}}),
		Instr{Op: OpAddrOf, Dst: 3, Tag: local.ID},
		Instr{Op: OpPStore, A: 3, B: 0, Size: 8}.WithAux(Aux{Tags: NewTagSet(local.ID)}),
		Instr{Op: OpPLoad, Dst: 4, A: 3, Size: 8}.WithAux(Aux{Tags: NewTagSet(local.ID)}),
		Instr{Op: OpBr},
	)
	exit.Instrs = append(exit.Instrs, Instr{Op: OpRet, A: 1, HasValue: true})
	AddEdge(head, body)
	AddEdge(head, exit)
	AddEdge(body, head) // loop back edge
	fn.Entry = head
	m.AddFunc(fn)
	m.AddressedFuncs = append(m.AddressedFuncs, "callee")
	return m
}

func TestModuleCloneIsDeepAndEqual(t *testing.T) {
	orig := buildCloneFixture()
	want := FormatModule(orig)
	clone := orig.Clone()

	if got := FormatModule(clone); got != want {
		t.Fatalf("clone formats differently:\n--- original\n%s\n--- clone\n%s", want, got)
	}
	if err := VerifyModule(clone); err != nil {
		t.Fatalf("clone fails verification: %v", err)
	}

	// Edges must point at cloned blocks, not the originals.
	cm := clone.Funcs["main"]
	om := orig.Funcs["main"]
	if cm == om {
		t.Fatal("function not cloned")
	}
	for _, b := range cm.Blocks {
		for _, s := range b.Succs {
			for _, ob := range om.Blocks {
				if s == ob {
					t.Fatal("clone successor aliases an original block")
				}
			}
		}
	}

	// Mutating the clone must not leak into the original: grow the tag
	// table, rewrite an instruction, and edit init data.
	clone.Tags.NewTag("spill0", TagSpill, "main", 8, 8)
	if clone.Tags.Len() != orig.Tags.Len()+1 {
		t.Fatalf("tag table shared: clone=%d orig=%d", clone.Tags.Len(), orig.Tags.Len())
	}
	cm.Blocks[1].Instrs[0].Args()[0] = 99
	if om.Blocks[1].Instrs[0].Args()[0] == 99 {
		t.Fatal("call Args shared between clone and original")
	}
	clone.Inits[0].Data[0] = 0xFF
	if orig.Inits[0].Data[0] == 0xFF {
		t.Fatal("init data shared between clone and original")
	}
	clone.Tags.Get(0).Name = "renamed"
	if orig.Tags.Get(0).Name == "renamed" {
		t.Fatal("tags shared between clone and original")
	}
	if got := FormatModule(orig); got != want {
		t.Fatalf("original changed after clone mutation:\n%s", got)
	}
}
