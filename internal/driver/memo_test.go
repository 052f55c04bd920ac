package driver

import (
	"reflect"
	"slices"
	"testing"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/ir"
)

// keyFixtureSrc has one of everything the content key folds: a
// function with parameters, a return value and frame locals, blocks
// with two successors and with two predecessors, direct and intrinsic
// calls, a heap site, pointer loads and stores, address-taken
// globals with a relocated initializer, and an addressed function.
const keyFixtureSrc = `
int g = 3;
int *gp = &g;
int add(int a, int b) { return a + b; }
int (*op)(int, int);
int main() {
	int x[4];
	int *p;
	int i;
	int s;
	p = (int *) malloc(16);
	s = 0;
	op = add;
	for (i = 0; i < 4; i++) { x[i] = i; s = s + x[i]; }
	if (s > 3) s = add(s, *gp); else s = op(s, 1);
	p[0] = s;
	print_int(p[0]);
	return 0;
}
`

// keyFixture compiles keyFixtureSrc through MOD/REF without
// optimization or allocation, so every instruction kind survives.
func keyFixture(t *testing.T) *ir.Module {
	t.Helper()
	c, err := CompileSource("key.c", keyFixtureSrc, Config{Analysis: ModRef, DisableOpt: true, NoAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	return c.Module
}

// instrWhere returns the first instruction of fn that ok accepts.
func instrWhere(t *testing.T, fn *ir.Func, ok func(*ir.Instr) bool) *ir.Instr {
	t.Helper()
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if ok(&b.Instrs[i]) {
				return &b.Instrs[i]
			}
		}
	}
	t.Fatalf("%s has no such instruction", fn.Name)
	return nil
}

// blockWhere returns the first block of fn that ok accepts.
func blockWhere(t *testing.T, fn *ir.Func, ok func(*ir.Block) bool) *ir.Block {
	t.Helper()
	for _, b := range fn.Blocks {
		if ok(b) {
			return b
		}
	}
	t.Fatalf("%s has no such block", fn.Name)
	return nil
}

func isOp(op ir.Op) func(*ir.Instr) bool {
	return func(in *ir.Instr) bool { return in.Op == op }
}

func isCall(callee string) func(*ir.Instr) bool {
	return func(in *ir.Instr) bool { return in.Op == ir.OpJsr && in.Callee() == callee }
}

// withAux rebuilds in's side record with edit applied.
func withAux(in *ir.Instr, edit func(*ir.Aux)) {
	a := ir.Aux{Callee: in.Callee(), Args: slices.Clone(in.Args()), Mods: in.Mods(), Refs: in.Refs(),
		Site: in.Site(), Targets: in.Targets(), Tags: in.Tags()}
	edit(&a)
	*in = in.WithAux(a)
}

// keyField says how the content key covers one IL field: mutate
// changes the field in the fixture's main function or module (and the
// key must notice), or excluded gives the reason the key leaves it out.
type keyField struct {
	mutate   func(t *testing.T, m *ir.Module, fn *ir.Func)
	excluded string
}

// keyFields covers every field of the IL types the key reads, by
// type name and field name.
var keyFields = map[string]map[string]keyField{
	"Func": {
		"Name":      {mutate: func(_ *testing.T, _ *ir.Module, fn *ir.Func) { fn.Name += "x" }},
		"Params":    {mutate: func(_ *testing.T, _ *ir.Module, fn *ir.Func) { fn.Params = append(fn.Params, 0) }},
		"NumRegs":   {mutate: func(_ *testing.T, _ *ir.Module, fn *ir.Func) { fn.NumRegs++ }},
		"Entry":     {mutate: func(_ *testing.T, _ *ir.Module, fn *ir.Func) { fn.Entry = fn.Blocks[1] }},
		"Blocks":    {mutate: func(_ *testing.T, _ *ir.Module, fn *ir.Func) { fn.Blocks = fn.Blocks[:len(fn.Blocks)-1] }},
		"Locals":    {mutate: func(_ *testing.T, _ *ir.Module, fn *ir.Func) { fn.Locals = append(fn.Locals, 0) }},
		"HasVarRet": {mutate: func(_ *testing.T, _ *ir.Module, fn *ir.Func) { fn.HasVarRet = !fn.HasVarRet }},
		"Allocated": {mutate: func(_ *testing.T, _ *ir.Module, fn *ir.Func) { fn.Allocated = !fn.Allocated }},
	},
	"Block": {
		"ID":    {mutate: func(_ *testing.T, _ *ir.Module, fn *ir.Func) { fn.Blocks[1].ID += 7 }},
		"Label": {mutate: func(_ *testing.T, _ *ir.Module, fn *ir.Func) { fn.Blocks[1].Label += "x" }},
		"Instrs": {mutate: func(_ *testing.T, _ *ir.Module, fn *ir.Func) {
			b := fn.Blocks[0]
			b.Instrs = append([]ir.Instr{{Op: ir.OpNop, Dst: ir.RegInvalid, A: ir.RegInvalid, B: ir.RegInvalid}}, b.Instrs...)
		}},
		"Succs": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) {
			b := blockWhere(t, fn, func(b *ir.Block) bool { return len(b.Succs) == 2 })
			b.Succs[0], b.Succs[1] = b.Succs[1], b.Succs[0]
		}},
		"Preds": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) {
			b := blockWhere(t, fn, func(b *ir.Block) bool { return len(b.Preds) == 2 })
			b.Preds[0], b.Preds[1] = b.Preds[1], b.Preds[0]
		}},
		"mark": {excluded: "a reachability walk's scratch stamp; no pass result depends on it"},
	},
	"Instr": {
		"Op": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) { instrWhere(t, fn, isOp(ir.OpAdd)).Op = ir.OpSub }},
		"Synth": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) {
			in := instrWhere(t, fn, isOp(ir.OpSStore))
			in.Synth = !in.Synth
		}},
		"HasValue": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) {
			in := instrWhere(t, fn, isOp(ir.OpRet))
			in.HasValue = !in.HasValue
		}},
		"Dst":  {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) { instrWhere(t, fn, isOp(ir.OpAdd)).Dst++ }},
		"A":    {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) { instrWhere(t, fn, isOp(ir.OpAdd)).A++ }},
		"B":    {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) { instrWhere(t, fn, isOp(ir.OpAdd)).B++ }},
		"Tag":  {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) { instrWhere(t, fn, isOp(ir.OpSStore)).Tag++ }},
		"Size": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) { instrWhere(t, fn, isOp(ir.OpSStore)).Size = 1 }},
		"Imm":  {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) { instrWhere(t, fn, isOp(ir.OpLoadI)).Imm++ }},
		"aux":  {excluded: "the side record; its fields are covered one by one under Aux"},
	},
	"Aux": {
		"Callee": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) {
			withAux(instrWhere(t, fn, isCall("add")), func(a *ir.Aux) { a.Callee = "main" })
		}},
		"Args": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) {
			instrWhere(t, fn, isCall("add")).Args()[0]++
		}},
		"Mods": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) {
			in := instrWhere(t, fn, isCall("add"))
			in.SetEffects(in.Mods().With(1), in.Refs())
		}},
		"Refs": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) {
			in := instrWhere(t, fn, isCall("add"))
			in.SetEffects(in.Mods(), in.Refs().With(1))
		}},
		"Site": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) {
			in := instrWhere(t, fn, isCall("malloc"))
			in.SetSite(in.Site() + 1)
		}},
		"Targets": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) {
			in := instrWhere(t, fn, func(in *ir.Instr) bool { return in.Op == ir.OpJsr && in.Callee() == "" })
			in.SetTargets([]string{"add"})
		}},
		"Tags": {mutate: func(t *testing.T, _ *ir.Module, fn *ir.Func) {
			in := instrWhere(t, fn, isOp(ir.OpPLoad))
			in.SetTags(in.Tags().With(0))
		}},
	},
	"Module": {
		"Funcs":          {mutate: func(_ *testing.T, m *ir.Module, fn *ir.Func) { m.Funcs["add"] = fn }},
		"FuncOrder":      {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { slices.Reverse(m.FuncOrder) }},
		"Tags":           {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Tags.NewTag("extra", ir.TagGlobal, "", 8, 8) }},
		"Inits":          {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Inits = m.Inits[1:] }},
		"AddressedFuncs": {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.AddressedFuncs = append(m.AddressedFuncs, "main") }},
	},
	"TagTable": {
		"tags": {excluded: "the tag list; each tag is covered field by field under Tag"},
	},
	"Tag": {
		"ID":        {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Tags.Get(0).ID = 99 }},
		"Name":      {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Tags.Get(0).Name += "x" }},
		"Kind":      {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Tags.Get(0).Kind = ir.TagSpill }},
		"Func":      {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Tags.Get(0).Func = "main" }},
		"Size":      {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Tags.Get(0).Size++ }},
		"Elem":      {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Tags.Get(0).Elem++ }},
		"AddrTaken": {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Tags.Get(0).AddrTaken = !m.Tags.Get(0).AddrTaken }},
		"Strong":    {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Tags.Get(0).Strong = !m.Tags.Get(0).Strong }},
		"Recursive": {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Tags.Get(0).Recursive = !m.Tags.Get(0).Recursive }},
	},
	"GlobalInit": {
		"Tag":    {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Inits[0].Tag++ }},
		"Data":   {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Inits[0].Data = append(m.Inits[0].Data, 1) }},
		"Relocs": {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Inits[1].Relocs = nil }},
	},
	"Reloc": {
		"Offset": {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Inits[1].Relocs[0].Offset++ }},
		"Target": {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Inits[1].Relocs[0].Target++ }},
		"Addend": {mutate: func(_ *testing.T, m *ir.Module, _ *ir.Func) { m.Inits[1].Relocs[0].Addend++ }},
	},
}

// TestKeyCoversEveryField walks the IL types by reflection: every
// field must be listed in keyFields, as folded into the key or as
// excluded with a reason, so a field added to the IL later fails here
// until the key (or the exclusion list) accounts for it.
func TestKeyCoversEveryField(t *testing.T) {
	types := []reflect.Type{
		reflect.TypeOf(ir.Func{}), reflect.TypeOf(ir.Block{}), reflect.TypeOf(ir.Instr{}),
		reflect.TypeOf(ir.Aux{}), reflect.TypeOf(ir.Module{}), reflect.TypeOf(ir.TagTable{}),
		reflect.TypeOf(ir.Tag{}), reflect.TypeOf(ir.GlobalInit{}), reflect.TypeOf(ir.Reloc{}),
	}
	for _, typ := range types {
		fields := keyFields[typ.Name()]
		if fields == nil {
			t.Errorf("ir.%s: not listed", typ.Name())
			continue
		}
		seen := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			seen[name] = true
			f, ok := fields[name]
			switch {
			case !ok:
				t.Errorf("ir.%s.%s: neither folded into the content key nor excluded", typ.Name(), name)
			case (f.mutate == nil) == (f.excluded == ""):
				t.Errorf("ir.%s.%s: want exactly one of a mutation or an exclusion reason", typ.Name(), name)
			}
		}
		for name := range fields {
			if !seen[name] {
				t.Errorf("ir.%s has no field %s", typ.Name(), name)
			}
		}
	}
	if len(keyFields) != len(types) {
		t.Errorf("keyFields lists %d types, the walk covers %d", len(keyFields), len(types))
	}
}

// TestKeyNoticesEveryField changes each covered field in turn on a
// fresh fixture: the function key (hashFunc, for the fields of a
// function) or the module's ContentKey (for the module-global ones)
// must differ from the unchanged fixture's.
func TestKeyNoticesEveryField(t *testing.T) {
	funcKey := func(fn *ir.Func) cache.Key {
		h := cache.NewHasher()
		hashFunc(h, fn)
		return h.Sum()
	}
	contentKey := func(m *ir.Module) cache.Key { return (&Compilation{Module: m}).ContentKey() }
	base := keyFixture(t)
	baseFunc, baseContent := funcKey(base.Funcs["main"]), contentKey(base)
	for typ, fields := range keyFields {
		for name, f := range fields {
			if f.mutate == nil {
				continue
			}
			m := base.Clone()
			fn := m.Funcs["main"]
			f.mutate(t, m, fn)
			switch typ {
			case "Func", "Block", "Instr", "Aux":
				if funcKey(fn) == baseFunc {
					t.Errorf("function key ignores a change to ir.%s.%s", typ, name)
				}
			default:
				if contentKey(m) == baseContent {
					t.Errorf("content key ignores a change to ir.%s.%s", typ, name)
				}
			}
		}
	}
}
