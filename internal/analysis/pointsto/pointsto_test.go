package pointsto

import (
	"testing"

	"regpromo/internal/analysis/modref"
	"regpromo/internal/callgraph"
	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/interp"
	"regpromo/internal/ir"
)

func analyze(t *testing.T, src string) (*ir.Module, *Result) {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	m, err := irgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cg := callgraph.Build(m)
	modref.Run(m, cg)
	return m, Run(m, cg)
}

func tagByName(t *testing.T, m *ir.Module, name string) ir.TagID {
	t.Helper()
	for _, tag := range m.Tags.All() {
		if tag.Name == name {
			return tag.ID
		}
	}
	t.Fatalf("no tag %s", name)
	return ir.TagInvalid
}

// opTags collects the tag sets of all pLoad/pStore ops in fn.
func opTags(m *ir.Module, fn string) []ir.TagSet {
	var out []ir.TagSet
	for _, b := range m.Funcs[fn].Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpPLoad || in.Op == ir.OpPStore {
				out = append(out, in.Tags())
			}
		}
	}
	return out
}

func TestDistinguishesTargets(t *testing.T) {
	m, _ := analyze(t, `
int a;
int b;
int deref(int *p) { return *p; }
int main(void) {
	int *q;
	q = &a;
	(void) deref(&b);
	return *q;
}
`)
	aTag, bTag := tagByName(t, m, "a"), tagByName(t, m, "b")
	// The deref in main through q can only reach a.
	for _, ts := range opTags(m, "main") {
		if ts.Has(bTag) {
			t.Fatalf("q only points to a, got %s", ts.Format(&m.Tags))
		}
		if !ts.Has(aTag) {
			t.Fatalf("q must reach a, got %s", ts.Format(&m.Tags))
		}
	}
	// deref receives both &a (never) and &b: only b flows there.
	for _, ts := range opTags(m, "deref") {
		if ts.Has(aTag) {
			t.Fatalf("deref only ever sees &b, got %s", ts.Format(&m.Tags))
		}
	}
}

func TestFlowThroughMemory(t *testing.T) {
	m, _ := analyze(t, `
int x;
int *holder;
int main(void) {
	int *p;
	holder = &x;
	p = holder;
	return *p;
}
`)
	xTag := tagByName(t, m, "x")
	holderTag := tagByName(t, m, "holder")
	// Dereferences of p reach x but not holder itself.
	for _, ts := range opTags(m, "main") {
		if !ts.Has(xTag) || ts.Has(holderTag) {
			t.Fatalf("p should reach exactly x, got %s", ts.Format(&m.Tags))
		}
	}
}

func TestHeapSplitByAllocationSite(t *testing.T) {
	m, res := analyze(t, `
int main(void) {
	int *p;
	int *q;
	p = (int *) malloc(8);
	q = (int *) malloc(8);
	*p = 1;
	*q = 2;
	return *p + *q;
}
`)
	_ = res
	sets := opTags(m, "main")
	if len(sets) < 4 {
		t.Fatalf("expected 4 pointer ops, got %d", len(sets))
	}
	// p's and q's sets must be disjoint singletons (distinct sites).
	var pSet, qSet ir.TagSet
	for _, ts := range sets {
		if id, ok := ts.Singleton(); ok {
			tag := m.Tags.Get(id)
			if tag.Kind != ir.TagHeap {
				t.Fatalf("expected heap tag, got %s", tag.Name)
			}
			if pSet.IsEmpty() {
				pSet = ts
			} else if !ts.Equal(pSet) {
				qSet = ts
			}
		}
	}
	if qSet.IsEmpty() {
		t.Fatal("allocation sites were merged")
	}
	if pSet.Intersects(qSet) {
		t.Fatal("sites must be disjoint")
	}
}

func TestFunctionPointerTargets(t *testing.T) {
	m, _ := analyze(t, `
int fa(void) { return 1; }
int fb(void) { return 2; }
int fc(void) { return 3; }
int run(int (*f)(void)) { return f(); }
int main(void) { return run(fa) + run(fb) + fc(); }
`)
	for _, b := range m.Funcs["run"].Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpJsr && in.Callee() == "" {
				if in.Targets() == nil {
					t.Fatal("indirect call should have pinned targets")
				}
				got := map[string]bool{}
				for _, x := range in.Targets() {
					got[x] = true
				}
				if !got["fa"] || !got["fb"] || got["fc"] {
					t.Fatalf("targets = %v", in.Targets())
				}
			}
		}
	}
}

func TestInitializerRelocsSeed(t *testing.T) {
	m, res := analyze(t, `
int cell;
int *ptr = &cell;
int main(void) { return *ptr; }
`)
	cell := tagByName(t, m, "cell")
	ptr := tagByName(t, m, "ptr")
	if !res.MemPointsTo(ptr).Has(cell) {
		t.Fatal("static initializer must seed points-to")
	}
	for _, ts := range opTags(m, "main") {
		if !ts.Has(cell) {
			t.Fatalf("deref of ptr must reach cell, got %s", ts.Format(&m.Tags))
		}
	}
}

// TestConservativeAgainstExecution is the dynamic-validation property:
// every address actually dereferenced at run time must belong to the
// static points-to set of the operation that dereferenced it. The
// sanitizer's sanitize.ptr check tests exactly that membership; a
// pointer load whose set is emptied by hand must trip it.
func TestConservativeAgainstExecution(t *testing.T) {
	sources := []string{
		`
int a;
int b[4];
int pick(int *p) { return *p; }
int main(void) {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 4; i++) b[i] = i;
	s += pick(&a);
	for (i = 0; i < 4; i++) s += pick(&b[i]);
	return s;
}`,
		`
struct node { int v; struct node *next; };
int main(void) {
	struct node *h;
	struct node *n;
	int i;
	int s;
	h = 0;
	for (i = 0; i < 5; i++) {
		n = (struct node *) malloc(sizeof(struct node));
		n->v = i;
		n->next = h;
		h = n;
	}
	s = 0;
	for (n = h; n != 0; n = n->next) s += n->v;
	return s;
}`,
		`
int x;
int y;
int *sel(int c) { if (c) return &x; return &y; }
int main(void) {
	int i;
	for (i = 0; i < 10; i++) *sel(i & 1) += 1;
	return x * 100 + y;
}`,
	}
	run := func(m *ir.Module) []ir.Diag {
		t.Helper()
		res, err := interp.Run(m, interp.Options{Sanitize: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Violations
	}
	for _, src := range sources {
		m, _ := analyze(t, src)
		for _, d := range run(m) {
			t.Errorf("%s", d)
		}
	}

	m, _ := analyze(t, sources[0])
	for _, b := range m.Funcs["pick"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpPLoad {
				b.Instrs[i].SetTags(ir.NewTagSet())
			}
		}
	}
	caught := false
	for _, d := range run(m) {
		caught = caught || d.Check == "sanitize.ptr"
	}
	if !caught {
		t.Fatal("emptied points-to set of pick's load: no sanitize.ptr violation")
	}
}

// TestRefinementMonotone: points-to only ever shrinks MOD/REF's sets.
func TestRefinementMonotone(t *testing.T) {
	src := `
int a;
int b;
int arr[8];
void touch(int *p, int i) { *p += arr[i & 7]; }
int main(void) {
	touch(&a, 1);
	touch(&b, 2);
	return a + b;
}
`
	f, _ := parser.Parse("t.c", src)
	p, _ := sema.Check(f)
	m1, _ := irgen.Generate(p)
	cg1 := callgraph.Build(m1)
	modref.Run(m1, cg1)
	before := map[*ir.Instr]ir.TagSet{}
	var order []*ir.Instr
	for _, fn := range m1.FuncsInOrder() {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpPLoad || in.Op == ir.OpPStore {
					before[in] = in.Tags()
					order = append(order, in)
				}
			}
		}
	}
	Run(m1, cg1)
	for _, in := range order {
		if !in.Tags().SubsetOf(before[in]) {
			t.Fatalf("points-to grew a tag set: %s -> %s",
				before[in].Format(&m1.Tags), in.Tags().Format(&m1.Tags))
		}
	}
}

// TestIndirectFallbackIsOrderIndependent: an indirect call binds every
// addressed function only when its pointer set is still empty at the
// fixpoint, never on the strength of an early visit. run's call
// through f only ever reaches fa, so &gl must not leak into fb's
// parameter, whichever of run and main is defined first.
func TestIndirectFallbackIsOrderIndependent(t *testing.T) {
	const decls = `
int gl;
int gb;
int fa(int *p) { return *p; }
int fb(int *p) { return *p; }
`
	const run = `
int run(int (*f)(int *)) { return f(&gl); }
`
	const main = `
int main(void) {
	int (*h)(int *);
	h = fb;
	(void) h(&gb);
	return run(fa);
}
`
	for name, src := range map[string]string{
		"run first":  decls + run + main,
		"main first": decls + "int run(int (*f)(int *));\n" + main + run,
	} {
		m, _ := analyze(t, src)
		gb := tagByName(t, m, "gb")
		sets := opTags(m, "fb")
		if len(sets) == 0 {
			t.Fatalf("%s: fb has no dereference", name)
		}
		for _, ts := range sets {
			if id, ok := ts.Singleton(); !ok || id != gb {
				t.Errorf("%s: fb's *p = %s, want [gb]", name, ts.Format(&m.Tags))
			}
		}
	}
}
