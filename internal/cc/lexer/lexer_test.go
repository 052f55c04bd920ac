package lexer

import (
	"testing"

	"regpromo/internal/cc/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, _, err := Tokenize("t.c", src)
	if err != nil {
		t.Fatalf("tokenize %q: %v", src, err)
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tok := range toks {
		out = append(out, tok.Kind)
	}
	return out
}

func expectKinds(t *testing.T, src string, want ...token.Kind) {
	t.Helper()
	want = append(want, token.EOF)
	got := kinds(t, src)
	if len(got) != len(want) {
		t.Fatalf("%q: got %v, want %v", src, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%q: token %d = %v, want %v", src, i, got[i], want[i])
		}
	}
}

func TestKeywordsAndIdentifiers(t *testing.T) {
	expectKinds(t, "int interior if iffy while",
		token.KwInt, token.Ident, token.KwIf, token.Ident, token.KwWhile)
}

func TestOperators(t *testing.T) {
	expectKinds(t, "a+++b", token.Ident, token.Inc, token.Plus, token.Ident)
	expectKinds(t, "a->b", token.Ident, token.Arrow, token.Ident)
	expectKinds(t, "a<<=b>>=c", token.Ident, token.ShlAssign, token.Ident, token.ShrAssign, token.Ident)
	expectKinds(t, "a<=b<c<<d", token.Ident, token.Le, token.Ident, token.Lt, token.Ident, token.Shl, token.Ident)
	expectKinds(t, "x&&y&z||w", token.Ident, token.AndAnd, token.Ident, token.And, token.Ident, token.OrOr, token.Ident)
	expectKinds(t, "...", token.Ellipsis)
	expectKinds(t, "a %= b ^= c |= d",
		token.Ident, token.PercentAssign, token.Ident, token.XorAssign,
		token.Ident, token.OrAssign, token.Ident)
}

func TestIntegerLiterals(t *testing.T) {
	toks, _, err := Tokenize("t.c", "0 42 0x2A 0xff 100u 200L 300UL")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 42, 42, 255, 100, 200, 300}
	for i, w := range want {
		if toks[i].Kind != token.IntLit || toks[i].Int != w {
			t.Fatalf("token %d = %+v, want int %d", i, toks[i], w)
		}
	}
}

func TestFloatLiterals(t *testing.T) {
	toks, _, err := Tokenize("t.c", "1.5 0.25 2e3 1.5e-2 7.")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 0.25, 2000, 0.015, 7}
	for i, w := range want {
		if toks[i].Kind != token.FloatLit || toks[i].Float() != w {
			t.Fatalf("token %d = %+v, want float %g", i, toks[i], w)
		}
	}
}

func TestDotVersusFloat(t *testing.T) {
	expectKinds(t, "a.b", token.Ident, token.Dot, token.Ident)
	toks, _, _ := Tokenize("t.c", ".5")
	if toks[0].Kind != token.FloatLit || toks[0].Float() != 0.5 {
		t.Fatalf("got %+v", toks[0])
	}
}

func TestCharLiterals(t *testing.T) {
	toks, _, err := Tokenize("t.c", `'a' '\n' '\0' '\\' '\''`)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{'a', '\n', 0, '\\', '\''}
	for i, w := range want {
		if toks[i].Kind != token.CharLit || toks[i].Int != w {
			t.Fatalf("token %d = %+v, want char %d", i, toks[i], w)
		}
	}
}

func TestStringLiterals(t *testing.T) {
	toks, _, err := Tokenize("t.c", `"hello", "a\tb"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "hello" {
		t.Fatalf("got %q", toks[0].Text)
	}
	if toks[2].Text != "a\tb" {
		t.Fatalf("got %q", toks[2].Text)
	}
}

func TestAdjacentStringsConcatenate(t *testing.T) {
	toks, _, err := Tokenize("t.c", `"x" "y"  "z"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "xyz" {
		t.Fatalf("concatenation got %q", toks[0].Text)
	}
	if toks[1].Kind != token.EOF {
		t.Fatalf("expected single token, next = %v", toks[1])
	}
}

func TestComments(t *testing.T) {
	expectKinds(t, "a /* b c */ d // e\nf",
		token.Ident, token.Ident, token.Ident)
}

func TestPositions(t *testing.T) {
	toks, f, err := Tokenize("t.c", "a\n  b /* c\n\n */\td\n")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"t.c:1:1", "t.c:2:3", "t.c:4:5", "t.c:5:1"} {
		if got := f.Position(toks[i].Pos).String(); got != want {
			t.Errorf("token %d (%v) at %s, want %s", i, toks[i], got, want)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{
		"\"unterminated",
		"'a",
		"/* unterminated",
		"#include <stdio.h>",
		"@",
		`'\q'`,
	} {
		if _, _, err := Tokenize("t.c", src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}
