package licm

import (
	"testing"

	"regpromo/internal/cfg"
	"regpromo/internal/ir"
	"regpromo/internal/testutil"
)

// depthOfDef returns the loop depth at which register r is defined.
func depthOfDef(fn *ir.Func, r ir.Reg) int {
	_, forest := cfg.Normalize(fn)
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Def() == r {
				return forest.Depth(b)
			}
		}
	}
	return -1
}

func TestHoistsInvariantArithmetic(t *testing.T) {
	m := testutil.Compile(t, `
int out[64];
int main(void) {
	int i;
	int n;
	n = 7;
	for (i = 0; i < 64; i++) {
		out[i] = n * 31 + 4;    /* invariant computation */
	}
	return out[63];
}
`)
	want := testutil.Run(t, m)
	fn := m.Funcs["main"]
	if n := Func(fn); n == 0 {
		t.Fatalf("nothing hoisted:\n%s", ir.FormatFunc(fn, &m.Tags))
	}
	testutil.VerifyAll(t, m)
	testutil.MustBehaveLike(t, m, want)
}

func TestHoistsAddressComputations(t *testing.T) {
	// The §3.3 precondition: &B[i] in the inner loop hoists to the
	// inner loop's landing pad.
	m := testutil.Compile(t, `
int A[16][16];
int B[16];
int main(void) {
	int i;
	int j;
	for (i = 0; i < 16; i++)
		for (j = 0; j < 16; j++)
			B[i] += A[i][j];
	return B[3];
}
`)
	want := testutil.Run(t, m)
	fn := m.Funcs["main"]
	if n := Func(fn); n == 0 {
		t.Fatal("address computation should hoist from the inner loop")
	}
	// Find the pLoad/pStore of B: its address register must now be
	// defined at depth 1 (outer loop body / inner pad), not depth 2.
	var addr ir.Reg = ir.RegInvalid
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpPStore {
				if tag, ok := in.Tags().Singleton(); ok && m.Tags.Get(tag).Name == "B" {
					addr = in.A
				}
			}
		}
	}
	if addr == ir.RegInvalid {
		t.Fatalf("no store to B found:\n%s", ir.FormatFunc(fn, &m.Tags))
	}
	if d := depthOfDef(fn, addr); d > 1 {
		t.Fatalf("B's address defined at depth %d, want <= 1", d)
	}
	testutil.MustBehaveLike(t, m, want)
}

func TestDoesNotHoistVariantCode(t *testing.T) {
	m := testutil.Compile(t, `
int out[32];
int main(void) {
	int i;
	for (i = 0; i < 32; i++) {
		out[i] = i * i;   /* depends on i: must stay */
	}
	return out[5];
}
`)
	want := testutil.Run(t, m)
	fn := m.Funcs["main"]
	Func(fn)
	testutil.MustBehaveLike(t, m, want)
	if want.Exit != 25 {
		t.Fatalf("exit = %d", want.Exit)
	}
}

func TestDoesNotHoistConditionalSingleDefWithEarlyUse(t *testing.T) {
	// x's only def sits behind a condition inside the loop, and x is
	// read before it on the zero-trip path of an inner structure.
	// Hoisting would change the value observed by the early read.
	m := testutil.Compile(t, `
int flags[8];
int main(void) {
	int i;
	int acc;
	acc = 0;
	for (i = 0; i < 8; i++) {
		int x;
		x = 0;
		if (flags[i]) x = 99;
		acc += x;
	}
	print_int(acc);
	flags[0] = 1;
	for (i = 0; i < 8; i++) {
		int y;
		y = 0;
		if (flags[i]) y = 7;
		acc += y;
	}
	print_int(acc);
	return 0;
}
`)
	want := testutil.Run(t, m)
	Run(m)
	testutil.VerifyAll(t, m)
	testutil.MustBehaveLike(t, m, want)
}

func TestDivisionNeverHoists(t *testing.T) {
	// Division can fault; a guarded division must not speculate into
	// the landing pad.
	m := testutil.Compile(t, `
int main(void) {
	int i;
	int d;
	int acc;
	d = 0;
	acc = 0;
	for (i = 0; i < 10; i++) {
		if (d != 0) {
			acc += 100 / d;   /* never executes: d stays 0 */
		}
		acc += 1;
	}
	return acc;
}
`)
	want := testutil.Run(t, m)
	Run(m)
	got := testutil.MustBehaveLike(t, m, want)
	if got.Exit != 10 {
		t.Fatalf("exit = %d", got.Exit)
	}
}

func TestNestedLoopsMigrateOutward(t *testing.T) {
	m := testutil.Compile(t, `
int out[8];
int main(void) {
	int i;
	int j;
	int k;
	int base;
	base = 21;
	for (i = 0; i < 8; i++) {
		for (j = 0; j < 8; j++) {
			for (k = 0; k < 8; k++) {
				out[k] = base * 2 + 1;   /* invariant at every level */
			}
		}
	}
	return out[0];
}
`)
	want := testutil.Run(t, m)
	fn := m.Funcs["main"]
	Func(fn)
	// The computation base*2+1 must now live at depth 0.
	found := false
	_, forest := cfg.Normalize(fn)
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpMul && forest.Depth(b) == 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("mul did not migrate to depth 0:\n%s", ir.FormatFunc(fn, &m.Tags))
	}
	testutil.MustBehaveLike(t, m, want)
}
