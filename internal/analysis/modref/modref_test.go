package modref

import (
	"testing"

	"regpromo/internal/callgraph"
	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/ir"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	file, err := parser.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sema.Check(file)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	m, err := irgen.Generate(prog)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	return m
}

func analyze(t *testing.T, src string) (*ir.Module, *Result) {
	t.Helper()
	m := compile(t, src)
	cg := callgraph.Build(m)
	return m, Run(m, cg)
}

func tagByName(t *testing.T, m *ir.Module, name string) *ir.Tag {
	t.Helper()
	for _, tag := range m.Tags.All() {
		if tag.Name == name {
			return tag
		}
	}
	t.Fatalf("no tag named %s", name)
	return nil
}

func TestCallSummaryTracksGlobalWrites(t *testing.T) {
	m, r := analyze(t, `
int g;
int h;
void writer(void) { g = 1; }
int reader(void) { return h; }
void caller(void) { writer(); }
`)
	gTag := tagByName(t, m, "g").ID
	hTag := tagByName(t, m, "h").ID
	if !r.Mod("writer").Has(gTag) {
		t.Fatal("writer must mod g")
	}
	if r.Mod("writer").Has(hTag) {
		t.Fatal("writer must not mod h")
	}
	if !r.Mod("caller").Has(gTag) {
		t.Fatal("caller must inherit writer's mods")
	}
	if !r.Ref("reader").Has(hTag) {
		t.Fatal("reader must ref h")
	}
	// The call instruction in caller carries writer's summary.
	caller := m.Funcs["caller"]
	for _, b := range caller.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpJsr {
				if !in.Mods().Has(gTag) {
					t.Fatal("jsr must carry mod g")
				}
				if in.Mods().Has(hTag) {
					t.Fatal("jsr must not carry mod h")
				}
			}
		}
	}
}

func TestPointerOpsLimitedToAddressTaken(t *testing.T) {
	m, _ := analyze(t, `
int exposed;
int hidden;
int probe(int *p) { return *p; }
int main(void) { return probe(&exposed) + hidden; }
`)
	exposedTag := tagByName(t, m, "exposed").ID
	hiddenTag := tagByName(t, m, "hidden").ID
	probe := m.Funcs["probe"]
	for _, b := range probe.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpPLoad {
				if in.Tags().IsTop() {
					t.Fatal("tag set should have been limited")
				}
				if !in.Tags().Has(exposedTag) {
					t.Fatal("must include the addressed global")
				}
				if in.Tags().Has(hiddenTag) {
					t.Fatal("must exclude the unaddressed global")
				}
			}
		}
	}
}

func TestLocalVisibleOnlyInDescendants(t *testing.T) {
	m, _ := analyze(t, `
int sink(int *p) { return *p; }
int unrelated(int *p) { return *p; }
int owner(void) {
	int x;
	x = 5;
	return sink(&x);
}
int main(void) { int y; y = 1; return owner() + unrelated(&y); }
`)
	var xTag ir.TagID = ir.TagInvalid
	for _, tag := range m.Tags.All() {
		if tag.Kind == ir.TagLocal && tag.Func == "owner" {
			xTag = tag.ID
		}
	}
	if xTag == ir.TagInvalid {
		t.Fatal("no local tag for owner.x")
	}
	// sink is a descendant of owner: x visible there.
	seen := false
	for _, b := range m.Funcs["sink"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpPLoad {
				seen = true
				if !b.Instrs[i].Tags().Has(xTag) {
					t.Fatal("x must be visible in sink")
				}
			}
		}
	}
	if !seen {
		t.Fatal("no pLoad in sink")
	}
	// unrelated is not called from owner: x invisible there.
	for _, b := range m.Funcs["unrelated"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpPLoad && b.Instrs[i].Tags().Has(xTag) {
				t.Fatal("x must not be visible in unrelated")
			}
		}
	}
}

func TestRecursiveLocalsDemotedToWeak(t *testing.T) {
	m, _ := analyze(t, `
int use(int *p) { return *p; }
int fib(int n) {
	int memo;
	memo = n;
	if (n < 2) return use(&memo);
	return fib(n-1) + fib(n-2);
}
`)
	for _, tag := range m.Tags.All() {
		if tag.Kind == ir.TagLocal && tag.Func == "fib" {
			if tag.Strong {
				t.Fatalf("recursive local %s must be weak", tag.Name)
			}
		}
	}
}

func TestIndirectCallsUseAddressedFunctions(t *testing.T) {
	m, r := analyze(t, `
int a;
int b;
void seta(void) { a = 1; }
void setb(void) { b = 1; }
void run(void (*f)(void)) { f(); }
int main(void) { run(seta); return a + b; }
`)
	aTag := tagByName(t, m, "a").ID
	bTag := tagByName(t, m, "b").ID
	// seta is addressed; setb is not... but setb's address is never
	// taken, so only seta is a possible target.
	if !r.Mod("run").Has(aTag) {
		t.Fatal("run may call seta, must mod a")
	}
	if r.Mod("run").Has(bTag) {
		t.Fatal("setb is not addressed; run must not mod b")
	}
}

func TestIntrinsicsHavePreciseEffects(t *testing.T) {
	m, _ := analyze(t, `
int g;
void f(void) {
	g = 1;
	print_int(g);
}
`)
	gTag := tagByName(t, m, "g").ID
	for _, b := range m.Funcs["f"].Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpJsr && in.Callee() == "print_int" {
				if in.Mods().Has(gTag) || in.Refs().Has(gTag) {
					t.Fatal("print_int must not touch g")
				}
				if in.Mods().IsTop() || in.Refs().IsTop() {
					t.Fatal("print_int must have precise effects")
				}
			}
		}
	}
}

func TestMutualRecursionSharesSummary(t *testing.T) {
	m, r := analyze(t, `
int x;
int y;
int even(int n);
int odd(int n) { y = n; if (n == 0) return 0; return even(n-1); }
int even(int n) { x = n; if (n == 0) return 1; return odd(n-1); }
`)
	xTag := tagByName(t, m, "x").ID
	yTag := tagByName(t, m, "y").ID
	_ = m
	if !r.Mod("odd").Equal(r.Mod("even")) {
		t.Fatal("SCC members must share summaries")
	}
	if !r.Mod("odd").Has(xTag) || !r.Mod("odd").Has(yTag) {
		t.Fatal("summary must include both globals")
	}
}

func TestRefineMemOpsSingletonStrong(t *testing.T) {
	// probe dereferences a pointer that can only be &exposed, so after
	// MOD/REF limiting (exposed is the only addressed tag) the pLoad
	// has a singleton strong tag set and must become an sLoad.
	m, _ := analyze(t, `
int exposed;
int probe(int *p) { return *p; }
int main(void) { return probe(&exposed); }
`)
	n := RefineMemOps(m)
	if n == 0 {
		t.Fatal("expected at least one refinement")
	}
	for _, b := range m.Funcs["probe"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpPLoad {
				t.Fatal("pLoad should have been refined to sLoad")
			}
		}
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
}

func TestRefineSkipsWeakAndMismatched(t *testing.T) {
	// The only addressed tag is an array (weak): no refinement.
	m, _ := analyze(t, `
int arr[8];
int probe(int *p) { return *p; }
int main(void) { return probe(&arr[3]); }
`)
	if n := RefineMemOps(m); n != 0 {
		t.Fatalf("array tag must not refine, got %d rewrites", n)
	}
}
