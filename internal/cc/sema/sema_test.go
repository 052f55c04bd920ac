package sema

import (
	"strings"
	"testing"

	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/types"
)

func check(t *testing.T, src string) *Program {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Check(f)
	if err == nil {
		t.Fatalf("expected error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not mention %q", err, wantSub)
	}
}

func TestSymbolResolution(t *testing.T) {
	p := check(t, `
int g;
int f(int a) {
	int l;
	l = a + g;
	return l;
}
`)
	if len(p.Funcs) != 1 || len(p.Globals) != 1 {
		t.Fatalf("prog = %+v", p)
	}
	if p.Funcs[0].Locals[0].Sym.Kind != ast.SymLocal {
		t.Fatal("local kind wrong")
	}
}

func TestUndefinedVariable(t *testing.T) {
	checkErr(t, `int f(void) { return nope; }`, "undefined")
}

func TestShadowing(t *testing.T) {
	p := check(t, `
int x;
int f(int x) {
	if (x) {
		int x;
		x = 3;
	}
	return x;
}
`)
	// Three distinct symbols named x; the two locals get distinct
	// uniq numbers.
	fd := p.Funcs[0]
	if fd.Params[0].Sym.Uniq == fd.Locals[0].Sym.Uniq {
		t.Fatal("shadowed locals must get distinct ids")
	}
}

func TestRedeclarationInScope(t *testing.T) {
	checkErr(t, `int f(void) { int a; int a; return 0; }`, "redeclared")
}

func TestAddressTakenMarking(t *testing.T) {
	p := check(t, `
int taken;
int nottaken;
int f(void) {
	int l;
	int *p;
	p = &taken;
	l = nottaken;
	return *p + l;
}
`)
	byName := map[string]*ast.VarDecl{}
	for _, g := range p.Globals {
		byName[g.Name] = g
	}
	if !byName["taken"].Sym.AddrTaken {
		t.Fatal("&taken must mark AddrTaken")
	}
	if byName["nottaken"].Sym.AddrTaken {
		t.Fatal("nottaken must not be marked")
	}
}

func TestTypeErrors(t *testing.T) {
	// Pointer/integer interconversion is deliberately lenient (old C),
	// but aggregates never convert.
	checkErr(t, `struct s { int x; }; struct s v; int f(void) { int a; a = v; return a; }`, "cannot assign")
	checkErr(t, `struct s { int x; }; struct s v; int f(void) { return v + 1; }`, "+")
	checkErr(t, `int f(void) { double d; return d % 2; }`, "%")
	checkErr(t, `int f(void) { int a; return *a; }`, "dereference")
	checkErr(t, `int f(void) { return 3 = 4; }`, "non-lvalue")
	checkErr(t, `void g(void) { } int f(void) { return g() + 1; }`, "+")
	checkErr(t, `int g(int a) { return a; } int f(void) { return g[0]; }`, "cannot index")
	checkErr(t, `int f(void *p) { p[0]; return 0; }`, "cannot index")
}

func TestCallChecking(t *testing.T) {
	checkErr(t, `int f(int a) { return f(); }`, "argument count")
	checkErr(t, `int f(int a) { return f(1, 2); }`, "argument count")
	checkErr(t, `int f(void) { return missing(3); }`, "undefined")
	checkErr(t, `int x; int f(void) { return x(); }`, "non-function")
	check(t, `
int add(int a, int b) { return a + b; }
int f(void) { return add('a', 2.5); }
`) // arithmetic arguments convert implicitly
}

func TestPrototypeAgreement(t *testing.T) {
	check(t, `
int twice(int v);
int f(void) { return twice(4); }
int twice(int v) { return v * 2; }
`)
	checkErr(t, `
int twice(int v);
double twice(int v) { return 1.0; }
`, "conflicting")
}

func TestReturnChecking(t *testing.T) {
	checkErr(t, `int f(void) { return; }`, "missing return value")
	checkErr(t, `void f(void) { return 3; }`, "return with value")
}

func TestBreakContinueOutsideLoop(t *testing.T) {
	checkErr(t, `void f(void) { break; }`, "break outside loop")
	checkErr(t, `void f(void) { continue; }`, "continue outside loop")
}

func TestStructRestrictions(t *testing.T) {
	checkErr(t, `struct s { int x; }; struct s f(void) { }`, "struct return")
	checkErr(t, `struct s { int x; }; void f(struct s v) { }`, "struct parameter")
	checkErr(t, `
struct s { int x; };
struct s a;
struct s b;
void f(void) { a = b; }
`, "struct assignment")
}

func TestMemberAccess(t *testing.T) {
	check(t, `
struct point { int x; int y; };
struct point p;
struct point *q;
int f(void) { q = &p; return p.x + q->y; }
`)
	checkErr(t, `
struct point { int x; };
struct point p;
int f(void) { return p.z; }
`, "no field")
	checkErr(t, `int v; int f(void) { return v.x; }`, "non-struct")
}

func TestStringPoolDeduplicates(t *testing.T) {
	p := check(t, `
char *a = "same";
char *b = "same";
char *c = "different";
`)
	if len(p.Strings) != 2 {
		t.Fatalf("string pool = %v", p.Strings)
	}
}

func TestEnumConstantsUsable(t *testing.T) {
	p := check(t, `
enum { A, B = 10, C };
int f(void) { return A + B + C; }
`)
	_ = p
}

func TestFunctionNameAsValueMarksAddressed(t *testing.T) {
	p := check(t, `
int inc(int v) { return v + 1; }
int apply(int (*f)(int), int v) { return f(v); }
int main(void) { return apply(inc, 3); }
`)
	found := false
	for _, n := range p.AddressedFuncs {
		if n == "inc" {
			found = true
		}
	}
	if !found {
		t.Fatalf("inc should be addressed: %v", p.AddressedFuncs)
	}
	// apply is only ever called directly.
	for _, n := range p.AddressedFuncs {
		if n == "apply" {
			t.Fatal("apply should not be addressed")
		}
	}
}

func TestGlobalInitializerMustBeConstant(t *testing.T) {
	checkErr(t, `
int f(void) { return 1; }
int x = f();
`, "constant")
}

func TestConditionTypes(t *testing.T) {
	checkErr(t, `
struct s { int x; };
struct s v;
void f(void) { if (v) { } }
`, "non-scalar")
}

func TestSizeofFolds(t *testing.T) {
	p := check(t, `
struct s { char c; double d; };
long a = sizeof(struct s);
long b = sizeof(int);
`)
	_ = p
	if types.IntType.Size() != 4 || types.DoubleType.Size() != 8 {
		t.Fatal("basic sizes wrong")
	}
}

func TestVoidPointerFlows(t *testing.T) {
	check(t, `
int main(void) {
	int *p;
	p = (int *) malloc(40);
	*p = 3;
	free((void *) p);
	return *p;
}
`)
}

func TestWholeProgramCompleteness(t *testing.T) {
	checkErr(t, `
int helper(int v);
int main(void) { return helper(3); }
`, "undefined function helper")
	// Taking the address is a use too, reported where it happens.
	checkErr(t, `
int helper(int v);
int main(void) { int (*p)(int) = helper; return 0; }
`, "t.c:3:34: address taken of undefined function helper")
	// A prototype that is declared but never called is fine.
	check(t, `
int unused_proto(int v);
int main(void) { return 0; }
`)
	// Builtins need no definition.
	check(t, `int main(void) { print_int(1); return 0; }`)
}
