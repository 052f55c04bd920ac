package driver_test

import (
	"testing"

	"regpromo/internal/driver"
)

// diagGolden pins the exact text of front-end diagnostics, position
// prefix included: each input is compiled as "f.c" and must fail with
// exactly want. Columns count bytes, so a tab is one column.
var diagGolden = []struct {
	name, src, want string
}{
	// Lexer.
	{"lex/unterminated-comment", "int x;\n/* never closed\nint y;\n", "f.c:2:1: unterminated block comment"},
	{"lex/hash-line", "int x;\n#define N 3\n", "f.c:2:1: preprocessor directives are not supported"},
	{"lex/bad-escape", "int main() {\n\treturn '\\q';\n}\n", `f.c:2:9: unsupported escape \q`},
	{"lex/bad-char", "int main() { return 1 @ 2; }\n", "f.c:1:23: unexpected character '@'"},
	{"lex/newline-in-string", "char *s = \"abc\n\";\n", "f.c:1:11: newline in string literal"},
	{"lex/unterminated-string", "char *s = \"abc", "f.c:1:11: unterminated string literal"},
	{"lex/unterminated-char", "int main() { return 'a; }", "f.c:1:21: unterminated char literal"},
	{"lex/bad-hex", "int main() {\n  /* a\n     b */ return 0x; }", `f.c:3:18: bad hex literal "0x"`},

	// Parser.
	{"parse/expected-semi", "int main() {\n  return 1\n}\n", "f.c:3:1: expected ;, found }"},
	{"parse/expected-semi-eof", "int x = 1", "f.c:1:10: expected ;, found EOF"},
	{"parse/eof-in-block", "int main() {\n  return 1;\n", "f.c:3:1: unexpected EOF in block"},
	{"parse/expected-expr", "int main() { return *; }", "f.c:1:22: expected expression, found ;"},
	{"parse/anonymous-struct", "struct { int a; } s;", "f.c:1:1: anonymous struct types are not supported"},
	{"parse/struct-redefined", "struct s { int a; };\nstruct s { int b; };\n", "f.c:2:1: struct s redefined"},
	{"parse/function-field", "struct s { int f(int); };", "f.c:1:16: function fields are not supported"},

	// Sema.
	{"sema/undefined", "int main() {\n  return y;\n}\n", "f.c:2:10: undefined: y"},
	{"sema/incomplete-var", "struct s;\nstruct s v;\n", "f.c:2:10: variable v has incomplete struct type"},
	{"sema/assign-type", "int main() {\n  int *p;\n  double d;\n  p = d;\n  return 0;\n}\n", "f.c:4:5: cannot assign double to int*"},
	{"sema/arg-count", "int f(int a) { return a; }\nint main() { return f(1, 2); }\n", "f.c:2:22: wrong argument count: have 2, want 1"},
	{"sema/redeclared", "int main() { int a; int a; return 0; }", "f.c:1:25: a redeclared in this scope"},
	{"sema/undefined-callee", "int g(int);\nint main() { return g(1); }\n", "f.c:2:22: call to undefined function g (whole-program compilation requires a definition)"},
	{"sema/break-outside-loop", "int main() { break; return 0; }", "f.c:1:14: break outside loop"},

	// IL generation.
	{"irgen/address-arithmetic", "int a[2];\nlong b = (long)a * 2;\n", "f.c:2:18: arithmetic on address constant"},
	{"irgen/divide-by-zero", "int z = 1 / 0;\n", "f.c:1:11: division by zero in constant"},
}

func TestDiagnosticsGolden(t *testing.T) {
	for _, tc := range diagGolden {
		t.Run(tc.name, func(t *testing.T) {
			_, err := driver.ParseSource("f.c", tc.src)
			if err == nil {
				t.Fatalf("compiled without error, want %q", tc.want)
			}
			if got := err.Error(); got != tc.want {
				t.Fatalf("error\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
