package check_test

import (
	"strings"
	"testing"

	"regpromo/internal/analysis/certify"
	"regpromo/internal/check"
	"regpromo/internal/ir"
	"regpromo/internal/opt/promote"
)

// mkMain builds a minimal well-formed module — one function "main"
// returning a value — and hands its entry block to the test for
// corruption. The entry terminator (ret r0, with r0 defined) is
// appended after build runs, so tests prepend their bad instructions.
func mkMain(build func(m *ir.Module, fn *ir.Func, entry *ir.Block)) *ir.Module {
	m := ir.NewModule()
	fn := &ir.Func{Name: "main", HasVarRet: true}
	entry := fn.NewBlock("")
	fn.Entry = entry
	m.AddFunc(fn)
	build(m, fn, entry)
	r := fn.NewReg()
	entry.Instrs = append(entry.Instrs,
		ir.Instr{Op: ir.OpLoadI, Dst: r, Imm: 0},
		ir.Instr{Op: ir.OpRet, A: r, HasValue: true})
	return m
}

// runPass runs one named pass from the registry over a fresh context.
func runPass(t *testing.T, name string, ctx *check.Context) []check.Diag {
	t.Helper()
	for _, p := range check.Passes() {
		if p.Name == name {
			return p.Run(ctx)
		}
	}
	t.Fatalf("no pass named %q in the registry", name)
	return nil
}

// wantDiag asserts exactly one diagnostic whose check and message
// match, and that its provenance names the function.
func wantDiag(t *testing.T, ds []check.Diag, checkName, msgPart string) {
	t.Helper()
	if len(ds) != 1 {
		t.Fatalf("got %d diagnostics %v, want 1", len(ds), ds)
	}
	d := ds[0]
	if d.Check != checkName {
		t.Errorf("check = %q, want %q", d.Check, checkName)
	}
	if !strings.Contains(d.Msg, msgPart) {
		t.Errorf("msg = %q, want substring %q", d.Msg, msgPart)
	}
	if d.Func != "main" {
		t.Errorf("func = %q, want main", d.Func)
	}
	if !strings.HasPrefix(d.String(), "[") || !strings.Contains(d.String(), checkName) {
		t.Errorf("stable string form broken: %q", d.String())
	}
}

func TestUseBeforeDef(t *testing.T) {
	m := mkMain(func(_ *ir.Module, fn *ir.Func, entry *ir.Block) {
		// r1 = copy r0 with r0 never defined anywhere (and not a
		// parameter): no definition may reach the use.
		a, b := fn.NewReg(), fn.NewReg()
		entry.Instrs = append(entry.Instrs, ir.Instr{Op: ir.OpCopy, Dst: b, A: a})
	})
	ds := runPass(t, "uninit", &check.Context{Module: m})
	wantDiag(t, ds, "uninit", "no definition reaches")
}

func TestUseBeforeDefMayReachIsQuiet(t *testing.T) {
	// A definition on only ONE path is may-reach: the lint must stay
	// quiet (it reports only uses no definition can ever reach).
	m := ir.NewModule()
	fn := &ir.Func{Name: "main", HasVarRet: true}
	entry := fn.NewBlock("")
	left := fn.NewBlock("")
	join := fn.NewBlock("")
	fn.Entry = entry
	m.AddFunc(fn)
	c, v := fn.NewReg(), fn.NewReg()
	entry.Instrs = []ir.Instr{
		{Op: ir.OpLoadI, Dst: c, Imm: 1},
		{Op: ir.OpCBr, A: c},
	}
	ir.AddEdge(entry, left)
	ir.AddEdge(entry, join)
	left.Instrs = []ir.Instr{{Op: ir.OpLoadI, Dst: v, Imm: 7}, {Op: ir.OpBr}}
	ir.AddEdge(left, join)
	join.Instrs = []ir.Instr{{Op: ir.OpRet, A: v, HasValue: true}}
	if ds := runPass(t, "uninit", &check.Context{Module: m}); len(ds) != 0 {
		t.Fatalf("may-reach definition flagged: %v", ds)
	}
}

func TestUnreachableBlock(t *testing.T) {
	m := mkMain(func(_ *ir.Module, fn *ir.Func, entry *ir.Block) {
		dead := fn.NewBlock("")
		dead.Instrs = []ir.Instr{{Op: ir.OpBr}}
		ir.AddEdge(dead, entry)
	})
	ds := runPass(t, "cfg", &check.Context{Module: m})
	wantDiag(t, ds, "cfg", "unreachable block")
}

func TestDanglingBranchTarget(t *testing.T) {
	// A successor edge into a block that is not in the function is the
	// structural verifier's job; check.Module must return only the
	// verifier's diagnostics (deeper passes would chase the breakage).
	stray := &ir.Block{ID: 0, Label: "stray"}
	stray.Instrs = []ir.Instr{{Op: ir.OpRet, A: ir.RegInvalid}}
	m := mkMain(func(_ *ir.Module, fn *ir.Func, entry *ir.Block) {
		entry.Instrs = append(entry.Instrs, ir.Instr{Op: ir.OpBr})
		ir.AddEdge(entry, stray)
	})
	ds := check.Module(&check.Context{Module: m})
	if len(ds) == 0 {
		t.Fatal("dangling branch target accepted")
	}
	for _, d := range ds {
		if d.Check != "verify" {
			t.Errorf("non-verify diag %v leaked past a broken module", d)
		}
	}
}

func TestBadCallArity(t *testing.T) {
	m := mkMain(func(m *ir.Module, fn *ir.Func, entry *ir.Block) {
		f := &ir.Func{Name: "f"}
		p := f.NewReg()
		f.Params = []ir.Reg{p}
		fb := f.NewBlock("")
		f.Entry = fb
		fb.Instrs = []ir.Instr{{Op: ir.OpRet, A: ir.RegInvalid}}
		m.AddFunc(f)
		// Call f() with no arguments; f wants one.
		entry.Instrs = append(entry.Instrs,
			ir.Instr{Op: ir.OpJsr, Dst: ir.RegInvalid}.WithAux(ir.Aux{Callee: "f"}))
	})
	ds := runPass(t, "arity", &check.Context{Module: m})
	wantDiag(t, ds, "arity", "with 0 args, want 1")
}

func TestBadIntrinsicArity(t *testing.T) {
	m := mkMain(func(_ *ir.Module, fn *ir.Func, entry *ir.Block) {
		a, b := fn.NewReg(), fn.NewReg()
		entry.Instrs = append(entry.Instrs,
			ir.Instr{Op: ir.OpLoadI, Dst: a, Imm: 1},
			ir.Instr{Op: ir.OpLoadI, Dst: b, Imm: 2},
			ir.Instr{Op: ir.OpJsr, Dst: ir.RegInvalid}.WithAux(ir.Aux{Callee: "print_int", Args: []ir.Reg{a, b}}))
	})
	ds := runPass(t, "arity", &check.Context{Module: m})
	wantDiag(t, ds, "arity", "with 2 args, want 1")
}

func TestInvalidTagRange(t *testing.T) {
	// A tag id outside the TagTable is structural: the verifier owns
	// it, and via the registry it is the only report.
	m := mkMain(func(_ *ir.Module, fn *ir.Func, entry *ir.Block) {
		r := fn.NewReg()
		entry.Instrs = append(entry.Instrs,
			ir.Instr{Op: ir.OpSLoad, Dst: r, Tag: 99, Size: 8})
	})
	ds := check.Module(&check.Context{Module: m})
	wantDiag(t, ds, "verify", "tag")
}

// wantSideRecordDiag asserts that the only report on m is the
// verifier's side-record diagnostic, anchored to main's entry block
// at instruction index 1 with opcode op.
func wantSideRecordDiag(t *testing.T, m *ir.Module, op ir.Op, msgPart string) {
	t.Helper()
	ds := check.Module(&check.Context{Module: m})
	wantDiag(t, ds, "verify", msgPart)
	d := ds[0]
	if d.Block != m.Funcs["main"].Entry.Label || d.Index != 1 || d.Op != op {
		t.Errorf("provenance = block %q index %d op %s, want %q/1/%s",
			d.Block, d.Index, d.Op, m.Funcs["main"].Entry.Label, op)
	}
}

func TestPointerLoadWithoutSideRecord(t *testing.T) {
	// A pLoad's tag set lives in its side record; one without the
	// record has lost its may-reference set.
	m := mkMain(func(_ *ir.Module, fn *ir.Func, entry *ir.Block) {
		a, r := fn.NewReg(), fn.NewReg()
		entry.Instrs = append(entry.Instrs,
			ir.Instr{Op: ir.OpLoadI, Dst: a, Imm: 0},
			ir.Instr{Op: ir.OpPLoad, Dst: r, A: a, Size: 8})
	})
	wantSideRecordDiag(t, m, ir.OpPLoad, "missing side record")
}

func TestArithmeticWithSideRecord(t *testing.T) {
	// Only calls, pointer memory ops and function addresses carry a
	// side record; an add with one is malformed.
	m := mkMain(func(_ *ir.Module, fn *ir.Func, entry *ir.Block) {
		a, r := fn.NewReg(), fn.NewReg()
		entry.Instrs = append(entry.Instrs,
			ir.Instr{Op: ir.OpLoadI, Dst: a, Imm: 1},
			ir.Instr{Op: ir.OpAdd, Dst: r, A: a, B: a}.WithAux(ir.Aux{Tags: ir.TopSet()}))
	})
	wantSideRecordDiag(t, m, ir.OpAdd, "unexpected side record")
}

func TestScalarAccessToHeapTag(t *testing.T) {
	m := mkMain(func(m *ir.Module, fn *ir.Func, entry *ir.Block) {
		h := m.Tags.NewTag("heap@1", ir.TagHeap, "", 8, 8)
		r := fn.NewReg()
		entry.Instrs = append(entry.Instrs,
			ir.Instr{Op: ir.OpSLoad, Dst: r, Tag: h.ID, Size: 8})
	})
	ds := runPass(t, "tags", &check.Context{Module: m})
	wantDiag(t, ds, "tags", "scalar access to heap tag")
}

func TestTopSetSurvivesAnalysis(t *testing.T) {
	m := mkMain(func(_ *ir.Module, fn *ir.Func, entry *ir.Block) {
		a, r := fn.NewReg(), fn.NewReg()
		entry.Instrs = append(entry.Instrs,
			ir.Instr{Op: ir.OpLoadI, Dst: a, Imm: 0},
			ir.Instr{Op: ir.OpPLoad, Dst: r, A: a, Size: 8}.WithAux(ir.Aux{Tags: ir.TopSet()}))
	})
	// Before analysis ⊤ is the legal conservative answer…
	if ds := runPass(t, "tags", &check.Context{Module: m}); len(ds) != 0 {
		t.Fatalf("pre-analysis ⊤ flagged: %v", ds)
	}
	// …after analysis it must have been narrowed.
	ds := runPass(t, "tags", &check.Context{Module: m, AnalysisDone: true})
	wantDiag(t, ds, "tags", "⊤ tag set survives")
}

// wantCertify asserts that certify reports exactly one violation, at
// main's entry block, instruction 0.
func wantCertify(t *testing.T, m *ir.Module, region promote.Region, msgPart string) {
	t.Helper()
	ds := runPass(t, "certify", &check.Context{Module: m, Regions: []promote.Region{region}})
	wantDiag(t, ds, "certify", msgPart)
	if d := ds[0]; d.Block != m.Funcs["main"].Entry.Label || d.Index != 0 {
		t.Errorf("provenance = %s#%d, want %s#0", d.Block, d.Index, m.Funcs["main"].Entry.Label)
	}
}

// The next three inputs break the promotion invariant in ways only the
// IL's own facts show: certify's oracle finds no definite access (a
// read in a region that stored nothing, spill code, a call to a
// function that does nothing), so R2 must read the tag, the Synth
// flag and the call's MOD summary.

func TestResidualPromotedAccess(t *testing.T) {
	var region promote.Region
	m := mkMain(func(m *ir.Module, fn *ir.Func, entry *ir.Block) {
		g := m.Tags.NewTag("g", ir.TagGlobal, "", 8, 8)
		r := fn.NewReg()
		// A load of the promoted tag left behind inside the region
		// body — exactly what promotion must have rewritten away.
		entry.Instrs = append(entry.Instrs,
			ir.Instr{Op: ir.OpSLoad, Dst: r, Tag: g.ID, Size: 8})
		region = promote.Region{Func: "main", Tag: g.ID, Body: []*ir.Block{entry}}
	})
	wantCertify(t, m, region, `access to promoted tag "g" survives inside its region`)
}

func TestSpillCodeInsideRegionBody(t *testing.T) {
	var region promote.Region
	m := mkMain(func(m *ir.Module, fn *ir.Func, entry *ir.Block) {
		g := m.Tags.NewTag("g", ir.TagGlobal, "", 8, 8)
		r := fn.NewReg()
		// Synth spill code is legal only at region boundaries, never
		// inside the body.
		entry.Instrs = append(entry.Instrs,
			ir.Instr{Op: ir.OpSLoad, Dst: r, Tag: g.ID, Size: 8, Synth: true})
		region = promote.Region{Func: "main", Tag: g.ID, Body: []*ir.Block{entry}}
	})
	wantCertify(t, m, region, `promotion spill code for tag "g" inside the region body`)
}

func TestCallTouchingPromotedTag(t *testing.T) {
	var region promote.Region
	m := mkMain(func(m *ir.Module, fn *ir.Func, entry *ir.Block) {
		g := m.Tags.NewTag("g", ir.TagGlobal, "", 8, 8)
		f := &ir.Func{Name: "f"}
		fb := f.NewBlock("")
		f.Entry = fb
		fb.Instrs = []ir.Instr{{Op: ir.OpRet, A: ir.RegInvalid}}
		m.AddFunc(f)
		entry.Instrs = append(entry.Instrs,
			ir.Instr{Op: ir.OpJsr, Dst: ir.RegInvalid}.WithAux(ir.Aux{Callee: "f", Mods: ir.NewTagSet(g.ID)}))
		region = promote.Region{Func: "main", Tag: g.ID, Body: []*ir.Block{entry}}
	})
	wantCertify(t, m, region, `call may touch promoted tag "g" inside its region`)
}

// TestPressureLintFlagsOverBudgetSite: the advisory pressure pass
// turns each over-budget measurement in the context into one
// diagnostic anchored at the site's landing pad, and stays quiet for
// sites within budget.
func TestPressureLintFlagsOverBudgetSite(t *testing.T) {
	m := mkMain(func(_ *ir.Module, _ *ir.Func, _ *ir.Block) {})
	ctx := &check.Context{Module: m, Pressure: []certify.Pressure{
		{Func: "main", Pad: "pad0", Values: 4, MaxLive: 4, MaxLiveAll: 20, Limit: 32},
		{Func: "main", Pad: "pad1", Values: 28, MaxLive: 28, MaxLiveAll: 80, Limit: 32, OverBudget: true},
	}}
	var ds []check.Diag
	for _, p := range check.Advisory() {
		if p.Name == "pressure" {
			ds = p.Run(ctx)
		}
	}
	wantDiag(t, ds, "pressure", "expect spilling in the loop")
	if ds[0].Block != "pad1" || ds[0].Index != -1 {
		t.Errorf("provenance = %s#%d, want pad1#-1", ds[0].Block, ds[0].Index)
	}
}

// TestSelectedRunsOnlyRequestedPasses: Selected must run exactly the
// named passes — core and advisory alike — in registry order
// regardless of request order, and leave the rest silent.
func TestSelectedRunsOnlyRequestedPasses(t *testing.T) {
	// One module carrying two latent faults for different passes: a
	// scalar access to a heap tag ("tags") and an over-budget pressure
	// site ("pressure"). "uninit" would stay quiet even if run.
	m := mkMain(func(m *ir.Module, fn *ir.Func, entry *ir.Block) {
		h := m.Tags.NewTag("heap@1", ir.TagHeap, "", 8, 8)
		r := fn.NewReg()
		entry.Instrs = append(entry.Instrs,
			ir.Instr{Op: ir.OpSLoad, Dst: r, Tag: h.ID, Size: 8})
	})
	ctx := &check.Context{Module: m, Pressure: []certify.Pressure{
		{Func: "main", Pad: "pad0", Values: 28, MaxLive: 28, MaxLiveAll: 80, Limit: 32, OverBudget: true},
	}}

	if ds := check.Selected(ctx, []string{"uninit"}); len(ds) != 0 {
		t.Errorf("unrequested faults reported: %v", ds)
	}
	ds := check.Selected(ctx, []string{"pressure", "tags"})
	if len(ds) != 2 {
		t.Fatalf("got %d diagnostics %v, want 2", len(ds), ds)
	}
	for i, want := range []string{"tags", "pressure"} {
		if ds[i].Check != want {
			t.Errorf("diag %d from %q, want %q (canonical order)", i, ds[i].Check, want)
		}
	}
}

// TestRegistryNamesAreStable pins the registry order tools and docs
// rely on.
func TestRegistryNamesAreStable(t *testing.T) {
	want := []string{"verify", "cfg", "uninit", "arity", "tags", "certify"}
	ps := check.Passes()
	if len(ps) != len(want) {
		t.Fatalf("registry has %d passes, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Errorf("pass %d = %q, want %q", i, p.Name, want[i])
		}
		if p.Doc == "" {
			t.Errorf("pass %q has no doc line", p.Name)
		}
	}
	wantAdv := []string{"pressure"}
	adv := check.Advisory()
	if len(adv) != len(wantAdv) {
		t.Fatalf("advisory registry has %d passes, want %d", len(adv), len(wantAdv))
	}
	for i, p := range adv {
		if p.Name != wantAdv[i] {
			t.Errorf("advisory pass %d = %q, want %q", i, p.Name, wantAdv[i])
		}
		if p.Doc == "" {
			t.Errorf("advisory pass %q has no doc line", p.Name)
		}
	}
	for _, name := range append(append([]string(nil), want...), wantAdv...) {
		if _, ok := check.Named(name); !ok {
			t.Errorf("Named(%q) not found", name)
		}
	}
	if _, ok := check.Named("nope"); ok {
		t.Errorf("Named(\"nope\") unexpectedly found")
	}
}
