package token

import (
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// TestTokenSize pins the token's footprint: the parser's lookahead
// and every scanned token pay for each field.
func TestTokenSize(t *testing.T) {
	if got := unsafe.Sizeof(Token{}); got > 32 {
		t.Fatalf("unsafe.Sizeof(Token{}) = %d, want <= 32", got)
	}
}

// TestPosSize pins a position to a pointer-free 4-byte offset: every
// token and AST node carries one, and the garbage collector never
// scans it.
func TestPosSize(t *testing.T) {
	if got := unsafe.Sizeof(Pos(0)); got != 4 {
		t.Fatalf("unsafe.Sizeof(Pos(0)) = %d, want 4", got)
	}
	if k := reflect.TypeOf(Pos(0)).Kind(); k != reflect.Int32 {
		t.Fatalf("Pos is a %s, want a pointer-free int32", k)
	}
}

func TestFilePosition(t *testing.T) {
	f := NewFile("f.c")
	src := "ab\n\tc\n\nd"
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			f.AddLine(i + 1)
		}
	}
	for _, tc := range []struct {
		off  int
		want string
	}{{0, "f.c:1:1"}, {2, "f.c:1:3"}, {3, "f.c:2:1"}, {4, "f.c:2:2"}, {6, "f.c:3:1"}, {7, "f.c:4:1"}, {8, "f.c:4:2"}} {
		if got := f.Position(Pos(tc.off)).String(); got != tc.want {
			t.Errorf("offset %d at %s, want %s", tc.off, got, tc.want)
		}
	}
}

func TestFloatBits(t *testing.T) {
	for _, v := range []float64{0, 0.5, -1e300, 3.25} {
		tok := Token{Kind: FloatLit, Int: int64(math.Float64bits(v))}
		if tok.Float() != v {
			t.Fatalf("Float() = %g, want %g", tok.Float(), v)
		}
	}
}
