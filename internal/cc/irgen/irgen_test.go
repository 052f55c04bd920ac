package irgen

import (
	"strings"
	"testing"

	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/ir"
)

// compile runs the front end over src and returns the module.
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
	mod, err := Generate(prog)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	return mod
}

func TestGenerateSimpleFunction(t *testing.T) {
	mod := compile(t, `
int add(int a, int b) { return a + b; }
int main(void) { return add(2, 3); }
`)
	if len(mod.Funcs) != 2 {
		t.Fatalf("want 2 functions, got %d", len(mod.Funcs))
	}
	add := mod.Funcs["add"]
	if add == nil || len(add.Params) != 2 {
		t.Fatalf("add: %+v", add)
	}
	if err := ir.VerifyModule(mod); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalsGetScalarOps(t *testing.T) {
	mod := compile(t, `
int g;
void f(void) { g = g + 1; }
`)
	f := mod.Funcs["f"]
	var loads, stores int
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpSLoad:
				loads++
			case ir.OpSStore:
				stores++
			}
		}
	}
	if loads != 1 || stores != 1 {
		t.Fatalf("global access should be explicit scalar ops: loads=%d stores=%d\n%s",
			loads, stores, ir.FormatFunc(f, &mod.Tags))
	}
}

func TestUnaliasedLocalsStayInRegisters(t *testing.T) {
	mod := compile(t, `
int f(int n) {
	int i;
	int sum;
	sum = 0;
	for (i = 0; i < n; i++) sum += i;
	return sum;
}
`)
	f := mod.Funcs["f"]
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op.IsMem() {
				t.Fatalf("unaliased locals should not touch memory:\n%s", ir.FormatFunc(f, &mod.Tags))
			}
		}
	}
}

func TestAddressTakenLocalGoesToMemory(t *testing.T) {
	mod := compile(t, `
void use(int *p) { *p = 1; }
int f(void) {
	int x;
	x = 0;
	use(&x);
	return x;
}
`)
	f := mod.Funcs["f"]
	var sawStore, sawLoad bool
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpSStore:
				sawStore = true
			case ir.OpSLoad:
				sawLoad = true
			}
		}
	}
	if !sawStore || !sawLoad {
		t.Fatalf("address-taken local must live in memory:\n%s", ir.FormatFunc(f, &mod.Tags))
	}
	// The tag for x must be marked address-taken.
	found := false
	for _, tag := range mod.Tags.All() {
		if strings.Contains(tag.Name, "f.x") {
			found = true
			if !tag.AddrTaken {
				t.Fatalf("tag %s should be AddrTaken", tag.Name)
			}
		}
	}
	if !found {
		t.Fatal("no tag for local x")
	}
}

func TestPointerDerefGetsTopTagSet(t *testing.T) {
	mod := compile(t, `
int f(int *p) { return *p; }
`)
	f := mod.Funcs["f"]
	var sawPLoad bool
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpPLoad {
				sawPLoad = true
				if !b.Instrs[i].Tags().IsTop() {
					t.Fatalf("pointer deref should start with top tag set, got %s", b.Instrs[i].Tags())
				}
			}
		}
	}
	if !sawPLoad {
		t.Fatal("no pLoad generated")
	}
}

func TestNamedArrayKeepsSingletonTagSet(t *testing.T) {
	mod := compile(t, `
int a[10];
int f(int i) { return a[i]; }
`)
	f := mod.Funcs["f"]
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpPLoad {
				tag, ok := b.Instrs[i].Tags().Singleton()
				if !ok {
					t.Fatalf("array load should have singleton tag set, got %s", b.Instrs[i].Tags())
				}
				if mod.Tags.Get(tag).Name != "a" {
					t.Fatalf("wrong tag %s", mod.Tags.Get(tag).Name)
				}
				return
			}
		}
	}
	t.Fatal("no pLoad generated")
}

func TestStructMemberAccess(t *testing.T) {
	mod := compile(t, `
struct point { int x; int y; };
struct point p;
int f(void) { p.x = 3; p.y = 4; return p.x + p.y; }
`)
	if err := ir.VerifyModule(mod); err != nil {
		t.Fatal(err)
	}
}

func TestMallocCreatesHeapSiteTags(t *testing.T) {
	mod := compile(t, `
int *f(void) {
	int *p;
	int *q;
	p = (int *) malloc(40);
	q = (int *) malloc(80);
	*p = 1;
	return q;
}
`)
	var heapTags int
	for _, tag := range mod.Tags.All() {
		if tag.Kind == ir.TagHeap {
			heapTags++
		}
	}
	if heapTags != 2 {
		t.Fatalf("want one heap tag per malloc site, got %d", heapTags)
	}
}

func TestGlobalInitializers(t *testing.T) {
	mod := compile(t, `
int x = 42;
double d = 2.5;
int arr[4] = {1, 2, 3};
char msg[6] = "hello";
char *s = "world";
int mat[2][2] = {{1, 2}, {3, 4}};
`)
	byName := map[string]ir.GlobalInit{}
	for _, init := range mod.Inits {
		byName[mod.Tags.Get(init.Tag).Name] = init
	}
	if got := byName["x"].Data[0]; got != 42 {
		t.Fatalf("x init = %d", got)
	}
	if len(byName["arr"].Data) != 16 {
		t.Fatalf("arr data len %d", len(byName["arr"].Data))
	}
	if byName["arr"].Data[4] != 2 {
		t.Fatalf("arr[1] = %d", byName["arr"].Data[4])
	}
	if len(byName["s"].Relocs) != 1 {
		t.Fatalf("s should have a reloc, got %+v", byName["s"])
	}
	if byName["mat"].Data[12] != 4 {
		t.Fatalf("mat[1][1] = %d", byName["mat"].Data[12])
	}
}

func TestShortCircuitAndConditional(t *testing.T) {
	mod := compile(t, `
int f(int a, int b) {
	int r;
	r = (a > 0 && b > 0) ? a : b;
	if (a == 1 || b == 2) r++;
	while (a > 0 && r < 100) { r += a; a--; }
	return r;
}
`)
	if err := ir.VerifyModule(mod); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionPointers(t *testing.T) {
	mod := compile(t, `
int inc(int x) { return x + 1; }
int dbl(int x) { return x * 2; }
int apply(int (*f)(int), int v) { return f(v); }
int main(void) { return apply(inc, 1) + apply(dbl, 2); }
`)
	if len(mod.AddressedFuncs) != 2 {
		t.Fatalf("addressed funcs: %v", mod.AddressedFuncs)
	}
	// apply must contain an indirect jsr.
	apply := mod.Funcs["apply"]
	found := false
	for _, b := range apply.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpJsr && b.Instrs[i].Callee() == "" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no indirect call in apply:\n%s", ir.FormatFunc(apply, &mod.Tags))
	}
}

func TestBreakContinueTargets(t *testing.T) {
	mod := compile(t, `
int f(void) {
	int i;
	int j;
	int hits;
	hits = 0;
	for (i = 0; i < 5; i++) {
		for (j = 0; j < 5; j++) {
			if (j == 2) continue;
			if (j == 4) break;
			hits++;
		}
		if (i == 3) break;
	}
	return hits;
}
int main(void) { return f(); }
`)
	if err := ir.VerifyModule(mod); err != nil {
		t.Fatal(err)
	}
}

func TestCompoundAssignOnPointer(t *testing.T) {
	mod := compile(t, `
int a[8];
int main(void) {
	int *p;
	p = a;
	p += 3;
	*p = 7;
	p -= 2;
	*p = 9;
	return a[3] * 10 + a[1];
}
`)
	if err := ir.VerifyModule(mod); err != nil {
		t.Fatal(err)
	}
}

func TestDoWhileShape(t *testing.T) {
	mod := compile(t, `
int main(void) {
	int n;
	n = 0;
	do { n++; } while (n < 3);
	return n;
}
`)
	// A do-while body must execute before the first condition test:
	// the entry must reach the body block without passing a cbr.
	fn := mod.Funcs["main"]
	b := fn.Entry
	for len(b.Succs) == 1 {
		if term := b.Terminator(); term != nil && term.Op == ir.OpCBr {
			t.Fatal("condition tested before the do-while body")
		}
		b = b.Succs[0]
		if b == fn.Entry {
			break
		}
	}
}

func TestAddressOfParamSpillsToFrame(t *testing.T) {
	mod := compile(t, `
void set(int *p) { *p = 9; }
int f(int v) {
	set(&v);
	return v;
}
int main(void) { return f(1); }
`)
	f := mod.Funcs["f"]
	// The param must be stored to its frame slot at entry.
	if f.Entry.Instrs[0].Op != ir.OpSStore {
		t.Fatalf("addressed param not homed at entry:\n%s", ir.FormatFunc(f, &mod.Tags))
	}
}

func TestStringLiteralSharing(t *testing.T) {
	mod := compile(t, `
char *a = "shared";
int main(void) {
	print_str("shared");
	print_str(a);
	return 0;
}
`)
	n := 0
	for _, tag := range mod.Tags.All() {
		if tag.Kind == ir.TagGlobal && tag.Name == ".str0" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("string pool entries named .str0: %d", n)
	}
}
