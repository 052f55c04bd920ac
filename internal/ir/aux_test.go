package ir

import (
	"strings"
	"testing"
	"unsafe"
)

// TestInstrSize pins the instruction's footprint: every IL instruction
// pays for each inline field, so a new one belongs in Aux unless most
// opcodes use it.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got > 40 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d, want <= 40", got)
	}
}

func TestAccessorsReadZeroWithoutAux(t *testing.T) {
	in := Instr{Op: OpAdd}
	if in.aux != nil || in.Callee() != "" || in.Args() != nil || in.Targets() != nil || in.Site() != 0 ||
		!in.Tags().IsEmpty() || !in.Mods().IsEmpty() || !in.Refs().IsEmpty() {
		t.Fatal("an instruction without a side record must read zero values")
	}
}

func TestLoadFKeepsFloatBits(t *testing.T) {
	for _, f := range []float64{0, 1, -2.5, 1e300} {
		in := Instr{Op: OpLoadF, Imm: FloatImm(f)}
		if in.Float() != f {
			t.Fatalf("Float() = %g, want %g", in.Float(), f)
		}
	}
}

// auxFixture is a call whose side record has every field set.
func auxFixture() Instr {
	return Instr{Op: OpJsr, Dst: RegInvalid}.WithAux(Aux{
		Args:    []Reg{1, 2},
		Mods:    NewTagSet(1),
		Refs:    NewTagSet(2),
		Site:    3,
		Targets: []string{"f", "g"},
		Tags:    NewTagSet(4),
	})
}

// TestSettersCopyOnWrite: every setter applied to a shallow copy
// leaves the original's side record as it was, so copying an Instr by
// value keeps behaving like a deep copy of the sets.
func TestSettersCopyOnWrite(t *testing.T) {
	setters := map[string]func(*Instr){
		"SetTags":    func(in *Instr) { in.SetTags(NewTagSet(9)) },
		"SetEffects": func(in *Instr) { in.SetEffects(NewTagSet(9), NewTagSet(9)) },
		"SetTargets": func(in *Instr) { in.SetTargets([]string{"h"}) },
		"SetSite":    func(in *Instr) { in.SetSite(9) },
	}
	for name, set := range setters {
		orig := auxFixture()
		cp := orig
		set(&cp)
		if cp.aux == orig.aux {
			t.Errorf("%s wrote the shared side record", name)
		}
		if !orig.Tags().Equal(NewTagSet(4)) || !orig.Mods().Equal(NewTagSet(1)) ||
			!orig.Refs().Equal(NewTagSet(2)) || orig.Site() != 3 ||
			strings.Join(orig.Targets(), ",") != "f,g" {
			t.Errorf("%s on a shallow copy changed the original: %s", name, FormatInstr(&orig, nil, nil))
		}
	}
}

// TestVerifySideRecordPlacement: the record is required on calls and
// pointer memory ops, allowed on function addresses, and rejected
// everywhere else.
func TestVerifySideRecordPlacement(t *testing.T) {
	var tt TagTable
	g := tt.NewTag("g", TagGlobal, "", 8, 8)
	cases := []struct {
		in   Instr
		want string // "" when well-formed
	}{
		{Instr{Op: OpJsr, Dst: RegInvalid}, "missing side record"},
		{Instr{Op: OpPLoad, Dst: 0, A: 0, Size: 8}, "missing side record"},
		{Instr{Op: OpPStore, A: 0, B: 0, Size: 8}, "missing side record"},
		{Instr{Op: OpAddrOf, Dst: 0, Tag: g.ID}.WithAux(Aux{}), "non-function addrOf"},
		{Instr{Op: OpCopy, Dst: 0, A: 0}.WithAux(Aux{}), "unexpected side record"},
		{Instr{Op: OpAddrOf, Dst: 0}.WithAux(Aux{Callee: "t"}), ""},
		{Instr{Op: OpPStore, A: 0, B: 0, Size: 8}.WithAux(Aux{Tags: TopSet()}), ""},
		{Instr{Op: OpAddrOf, Dst: 0, Tag: g.ID}, ""},
	}
	for _, c := range cases {
		fn := &Func{Name: "t", NumRegs: 1}
		b := fn.NewBlock("")
		fn.Entry = b
		b.Instrs = []Instr{c.in, {Op: OpRet, A: RegInvalid}}
		ds := VerifyFuncAll(fn, &tt)
		if c.want == "" {
			if len(ds) != 0 {
				t.Errorf("%s: unexpected %v", c.in.Op, ds)
			}
			continue
		}
		if len(ds) != 1 || !strings.Contains(ds[0].Msg, c.want) || ds[0].Index != 0 || ds[0].Op != c.in.Op {
			t.Errorf("%s: got %v, want one %q at index 0", c.in.Op, ds, c.want)
		}
	}
}

// TestModuleCloneSharesNoSideRecord walks a module and its clone in
// step: no instruction pair may share a side record, an Args backing
// array, or a Targets backing array.
func TestModuleCloneSharesNoSideRecord(t *testing.T) {
	orig := buildCloneFixture()
	clone := orig.Clone()
	records := 0
	for _, name := range orig.FuncOrder {
		ob, cb := orig.Funcs[name].Blocks, clone.Funcs[name].Blocks
		for bi := range ob {
			for i := range ob[bi].Instrs {
				o, c := &ob[bi].Instrs[i], &cb[bi].Instrs[i]
				if o.aux == nil {
					if c.aux != nil {
						t.Fatalf("%s: clone grew a side record", FormatInstr(o, nil, nil))
					}
					continue
				}
				records++
				if o.aux == c.aux {
					t.Errorf("%s: side record shared with the clone", FormatInstr(o, nil, nil))
				}
				if len(o.Args()) > 0 && &o.Args()[0] == &c.Args()[0] {
					t.Errorf("%s: Args backing array shared with the clone", FormatInstr(o, nil, nil))
				}
				if len(o.Targets()) > 0 && &o.Targets()[0] == &c.Targets()[0] {
					t.Errorf("%s: Targets backing array shared with the clone", FormatInstr(o, nil, nil))
				}
			}
		}
	}
	if records < 4 {
		t.Fatalf("fixture has %d side records, want every kind (call, indirect call, pointer op, function address)", records)
	}
}
