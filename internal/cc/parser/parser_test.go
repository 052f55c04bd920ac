package parser

import (
	"testing"

	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/lexer"
	"regpromo/internal/cc/types"
)

func parse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func parseErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Parse("t.c", src)
	if err == nil {
		t.Fatalf("expected parse error for %q", src)
	}
	return err
}

func TestGlobalDeclarations(t *testing.T) {
	f := parse(t, `
int a;
int b = 3, c = 4;
double d;
char *s;
int arr[10];
int mat[2][3];
`)
	if len(f.Globals) != 7 {
		t.Fatalf("globals = %d", len(f.Globals))
	}
	byName := map[string]*ast.VarDecl{}
	for _, g := range f.Globals {
		byName[g.Name] = g
	}
	if byName["s"].Type.Kind != types.Pointer || byName["s"].Type.Elem.Kind != types.Char {
		t.Fatalf("s type = %s", byName["s"].Type)
	}
	if byName["mat"].Type.Kind != types.Array || byName["mat"].Type.Elem.ArrayLen != 3 {
		t.Fatalf("mat type = %s", byName["mat"].Type)
	}
	if byName["b"].Init == nil {
		t.Fatal("b has no initializer")
	}
}

func TestFunctionDeclarations(t *testing.T) {
	f := parse(t, `
int add(int a, int b) { return a + b; }
void nothing(void) { }
int proto(int x);
double *mk(void);
`)
	if len(f.Funcs) != 4 {
		t.Fatalf("funcs = %d", len(f.Funcs))
	}
	add := f.Funcs[0]
	if add.Name != "add" || len(add.Params) != 2 || add.Params[0].Name != "a" {
		t.Fatalf("add = %+v", add)
	}
	if f.Funcs[2].Body != nil {
		t.Fatal("prototype should have no body")
	}
	mk := f.Funcs[3]
	if mk.Result.Kind != types.Pointer || mk.Result.Elem.Kind != types.Double {
		t.Fatalf("mk result = %s", mk.Result)
	}
}

func TestFunctionPointerDeclarator(t *testing.T) {
	f := parse(t, `
int apply(int (*op)(int, int), int x) { return op(x, x); }
int (*table[4])(int, int);
`)
	apply := f.Funcs[0]
	p := apply.Params[0].Type
	if p.Kind != types.Pointer || p.Elem.Kind != types.Func || len(p.Elem.Params) != 2 {
		t.Fatalf("op type = %s", p)
	}
	tab := f.Globals[0]
	if tab.Type.Kind != types.Array || tab.Type.Elem.Kind != types.Pointer ||
		tab.Type.Elem.Elem.Kind != types.Func {
		t.Fatalf("table type = %s", tab.Type)
	}
}

func TestStructDeclarations(t *testing.T) {
	f := parse(t, `
struct point { int x; int y; };
struct list;
struct list { int val; struct list *next; };
struct point origin;
`)
	if len(f.Structs) != 2 {
		t.Fatalf("structs = %d", len(f.Structs))
	}
	pt := f.Structs[0].Type
	if len(pt.Fields) != 2 || pt.Fields[1].Offset != 4 {
		t.Fatalf("point fields = %+v", pt.Fields)
	}
	lst := f.Structs[1].Type
	if lst.Fields[1].Type.Kind != types.Pointer || lst.Fields[1].Type.Elem != lst {
		t.Fatal("self-referential struct pointer broken")
	}
	if lst.Fields[1].Offset != 8 {
		t.Fatalf("next offset = %d (alignment)", lst.Fields[1].Offset)
	}
}

func TestEnumDeclarations(t *testing.T) {
	f := parse(t, `enum color { RED, GREEN = 5, BLUE };`)
	e := f.Enums[0]
	if len(e.Names) != 3 || e.Vals[0] != 0 || e.Vals[1] != 5 || e.Vals[2] != 6 {
		t.Fatalf("enum = %+v", e)
	}
}

func TestStatements(t *testing.T) {
	parse(t, `
void f(int n) {
	int i;
	if (n > 0) i = 1; else i = 2;
	while (n--) { i += n; }
	do i--; while (i > 0);
	for (i = 0; i < n; i++) continue;
	for (;;) break;
	;
	return;
}
`)
}

func TestExpressionPrecedence(t *testing.T) {
	f := parse(t, `int x = 1 + 2 * 3;`)
	bin := f.Globals[0].Init.(*ast.Binary)
	// Must parse as 1 + (2*3): top node is +.
	if bin.Op.String() != "+" {
		t.Fatalf("top op = %v", bin.Op)
	}
	if _, ok := bin.Y.(*ast.Binary); !ok {
		t.Fatal("rhs should be the multiplication")
	}
}

func TestAssignmentRightAssociative(t *testing.T) {
	f := parse(t, `
void f(void) {
	int a;
	int b;
	a = b = 3;
}
`)
	body := f.Funcs[0].Body
	stmt := body.Stmts[len(body.Stmts)-1].(*ast.ExprStmt)
	outer := stmt.X.(*ast.Assign)
	if _, ok := outer.Y.(*ast.Assign); !ok {
		t.Fatal("a = (b = 3) expected")
	}
}

func TestCastVersusParen(t *testing.T) {
	f := parse(t, `
void g(int p) {
	double d;
	int i;
	d = (double) p;
	i = (p) + 1;
}
`)
	body := f.Funcs[0].Body
	castStmt := body.Stmts[2].(*ast.ExprStmt).X.(*ast.Assign)
	if _, ok := castStmt.Y.(*ast.Cast); !ok {
		t.Fatalf("cast not recognized: %T", castStmt.Y)
	}
	addStmt := body.Stmts[3].(*ast.ExprStmt).X.(*ast.Assign)
	if _, ok := addStmt.Y.(*ast.Binary); !ok {
		t.Fatalf("paren expr misparsed as cast: %T", addStmt.Y)
	}
}

func TestSizeof(t *testing.T) {
	f := parse(t, `
struct s { int a; double b; };
void f(void) {
	int x;
	x = sizeof(int);
	x = sizeof(struct s);
	x = sizeof x;
	x = sizeof(int *);
	x = sizeof(int[4]);
}
`)
	_ = f
}

func TestTernaryAndLogical(t *testing.T) {
	parse(t, `int f(int a, int b) { return a > b ? a : b ? 1 : 0; }`)
	parse(t, `int g(int a) { return !a && ~a || -a; }`)
}

func TestInitializerLists(t *testing.T) {
	f := parse(t, `
int a[3] = {1, 2, 3};
int m[2][2] = {{1, 2}, {3, 4}};
`)
	if len(f.Globals[0].InitList) != 3 {
		t.Fatalf("a initlist = %d", len(f.Globals[0].InitList))
	}
	inner, ok := f.Globals[1].InitList[0].(*ast.ListExpr)
	if !ok || len(inner.Elems) != 2 {
		t.Fatal("nested init list broken")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"int;",
		"int f( { }",
		"int f(void) { return }",
		"int f(void) { if }",
		"struct { int x; } v;",
		"int f(void) { x = ; }",
		"int a[3",
		"int f(void) { for (;;) }",
	} {
		parseErr(t, src)
	}
}

func TestStorageClassesIgnored(t *testing.T) {
	f := parse(t, `
static int counter;
extern int other;
static int helper(void) { return 1; }
`)
	if len(f.Globals) != 2 || len(f.Funcs) != 1 {
		t.Fatalf("globals=%d funcs=%d", len(f.Globals), len(f.Funcs))
	}
}

func TestUnsignedAndLongSpellings(t *testing.T) {
	f := parse(t, `
unsigned u;
long l;
long int li;
unsigned int ui;
const char *msg;
`)
	if len(f.Globals) != 5 {
		t.Fatalf("globals = %d", len(f.Globals))
	}
	byName := map[string]*ast.VarDecl{}
	for _, g := range f.Globals {
		byName[g.Name] = g
	}
	if byName["l"].Type.Kind != types.Long || byName["li"].Type.Kind != types.Long {
		t.Fatal("long spellings")
	}
	if byName["u"].Type.Kind != types.Int {
		t.Fatal("unsigned maps to int in the subset")
	}
}

// TestLexErrorTakesPrecedence: tokens stream from the lexer, but a
// lexical error anywhere in the file is still the reported error, as
// if the file had been tokenized before parsing — even when a syntax
// error comes first, and when the lexical error cuts a declaration
// short.
func TestLexErrorTakesPrecedence(t *testing.T) {
	for _, src := range []string{
		"int f(void) { return 1 + ; }\nint x = 0x;\n",
		"int x = 0x;\n",
		"int x;\n#include <stdio.h>\n",
	} {
		err := parseErr(t, src)
		if _, ok := err.(*lexer.Error); !ok {
			t.Errorf("%q: got %T %v, want the lexical error", src, err, err)
		}
	}
	if _, ok := parseErr(t, "int f(void) { return 1 + ; }\n").(*Error); !ok {
		t.Error("a file without lexical errors must report the syntax error")
	}
}

// wantParseErr parses src and requires exactly the diagnostic want.
func wantParseErr(t *testing.T, src, want string) {
	t.Helper()
	if got := parseErr(t, src).Error(); got != want {
		t.Fatalf("error %q, want %q", got, want)
	}
}

// A struct that holds itself by value has no finite layout; laying it
// out once recursed without bound.
func TestSelfContainingStructRejected(t *testing.T) {
	wantParseErr(t, "struct cell { int v; struct cell t; };\nint main() { return 0; }\n",
		"t.c:1:34: field t has incomplete struct type struct cell")
}

// Two structs that hold each other by value: the first is laid out
// while the second is still incomplete.
func TestMutuallyContainingStructsRejected(t *testing.T) {
	wantParseErr(t, "struct a { struct b x; };\nstruct b { struct a y; };\n",
		"t.c:1:21: field x has incomplete struct type struct b")
}

// A field of a struct defined only later was laid out at size 0, so
// the next field overlapped it and the interpreter faulted at run time.
func TestFieldOfLaterStructRejected(t *testing.T) {
	wantParseErr(t, "struct a { struct b x; int after; };\nstruct b { int y; int z; };\n",
		"t.c:1:21: field x has incomplete struct type struct b")
	wantParseErr(t, "struct b;\nstruct a { int n; struct b xs[4]; };\n",
		"t.c:2:28: field xs has incomplete struct type struct b")
}

// Array lengths are checked where the array type is built: a negative
// length or an object past types.MaxSize is rejected at its bracket.
func TestArraySizeLimits(t *testing.T) {
	wantParseErr(t, "int a[-1];", "t.c:1:6: array size -1 is negative")
	wantParseErr(t, "int f(void) { return sizeof(int[-2]); }", "t.c:1:32: array size -2 is negative")
	wantParseErr(t, "long a[2][20000000];", "t.c:1:7: array of 2 long[20000000] is larger than 268435456 bytes")
	wantParseErr(t, "struct s { char a[200000000]; char b[200000000]; };",
		"t.c:1:1: struct s is larger than 268435456 bytes")
	parse(t, "char a[268435456];")
}
