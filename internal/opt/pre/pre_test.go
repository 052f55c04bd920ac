package pre

import (
	"testing"

	"regpromo/internal/ir"
	"regpromo/internal/testutil"
)

func TestCrossBlockRedundantLoad(t *testing.T) {
	m := testutil.Compile(t, `
int g;
int main(void) {
	int a;
	int b;
	a = g;           /* establishes g in a register */
	if (a > 0) {
		a = a + 1;
	}
	b = g;           /* redundant on every path */
	return a * 100 + b;
}
`)
	want := testutil.Run(t, m)
	fn := m.Funcs["main"]
	before := testutil.CountOps(fn, ir.OpSLoad)
	if n := Run(m); n == 0 {
		t.Fatalf("expected a redundant load, have %d loads:\n%s",
			before, ir.FormatFunc(fn, &m.Tags))
	}
	testutil.VerifyAll(t, m)
	testutil.MustBehaveLike(t, m, want)
}

func TestStoreMakesLoadRedundant(t *testing.T) {
	m := testutil.Compile(t, `
int g;
int use(int v) { return v; }
int main(void) {
	int b;
	g = 42;
	use(0);          /* calls use, which cannot touch g */
	b = g;
	return b;
}
`)
	fn := m.Funcs["main"]
	if n := Run(m); n == 0 {
		t.Fatalf("store should make the load redundant:\n%s", ir.FormatFunc(fn, &m.Tags))
	}
	if res := testutil.Run(t, m); res.Exit != 42 {
		t.Fatalf("exit = %d", res.Exit)
	}
}

func TestDivergentPathsBlockReuse(t *testing.T) {
	// The two paths leave g's value in DIFFERENT registers; the meet
	// must discard the fact and keep the load.
	m := testutil.Compile(t, `
int g;
int main(void) {
	int a;
	int b;
	int c;
	if (g > 0) {
		a = g + 1;
	} else {
		b = g + 2;
		if (b > 100) b = 0;
	}
	c = g;
	return c;
}
`)
	want := testutil.Run(t, m)
	Run(m)
	testutil.VerifyAll(t, m)
	testutil.MustBehaveLike(t, m, want)
}

func TestAmbiguousWriteKills(t *testing.T) {
	m := testutil.Compile(t, `
int g;
int main(void) {
	int a;
	int b;
	int *p;
	p = &g;
	a = g;
	*p = 99;         /* may (does) modify g */
	b = g;           /* must reload */
	return a + b;
}
`)
	fn := m.Funcs["main"]
	before := testutil.CountOps(fn, ir.OpSLoad)
	Run(m)
	after := testutil.CountOps(fn, ir.OpSLoad)
	if after != before {
		t.Fatalf("load after aliasing store removed: %d -> %d\n%s",
			before, after, ir.FormatFunc(fn, &m.Tags))
	}
	if res := testutil.Run(t, m); res.Exit != 99 {
		t.Fatalf("exit = %d, want 0+99", res.Exit)
	}
}

func TestCallModsKill(t *testing.T) {
	m := testutil.Compile(t, `
int g;
void clobber(void) { g = 5; }
int main(void) {
	int a;
	int b;
	a = g;
	clobber();
	b = g;
	return a * 10 + b;
}
`)
	fn := m.Funcs["main"]
	before := testutil.CountOps(fn, ir.OpSLoad)
	Run(m)
	if after := testutil.CountOps(fn, ir.OpSLoad); after != before {
		t.Fatalf("load across clobbering call removed: %d -> %d", before, after)
	}
}

func TestLoopCarriedFactsConverge(t *testing.T) {
	// A load inside a loop whose tag is stored in the same loop: the
	// back edge must reach a fixed point without oscillating, and the
	// loop-carried register must not be wrongly reused.
	m := testutil.Compile(t, `
int g;
int main(void) {
	int i;
	int sum;
	sum = 0;
	for (i = 0; i < 10; i++) {
		sum += g;
		g = sum & 7;
	}
	print_int(g);
	print_int(sum);
	return 0;
}
`)
	want := testutil.Run(t, m)
	Run(m)
	testutil.VerifyAll(t, m)
	testutil.MustBehaveLike(t, m, want)
}

func TestStraightLinePromotionEffect(t *testing.T) {
	// §3.4: PRE achieves "most of the effects of promotion in
	// straight-line code" — repeated loads of a global outside any
	// loop collapse to one.
	m := testutil.Compile(t, `
int g;
int h;
int main(void) {
	int a;
	a = g + h;
	a += g * h;
	a += g - h;
	return a & 1023;
}
`)
	want := testutil.Run(t, m)
	fn := m.Funcs["main"]
	Run(m)
	loads := testutil.CountOps(fn, ir.OpSLoad)
	if loads > 2 {
		t.Fatalf("each global should be loaded once, %d loads remain:\n%s",
			loads, ir.FormatFunc(fn, &m.Tags))
	}
	testutil.MustBehaveLike(t, m, want)
}

// TestRewrittenLoadRecordsNoFact pins that a load rewritten into a
// copy makes its destination no holder for later loads in the block:
// the third load copies from the first load's register, not from the
// lower-numbered destination of the rewritten second load.
func TestRewrittenLoadRecordsNoFact(t *testing.T) {
	fn := &ir.Func{Name: "t", NumRegs: 10}
	b := fn.NewBlock("")
	fn.Entry = b
	const tag ir.TagID = 3
	b.Instrs = []ir.Instr{
		{Op: ir.OpSLoad, Dst: 5, Tag: tag, Size: 8},
		{Op: ir.OpSLoad, Dst: 2, Tag: tag, Size: 8},
		{Op: ir.OpSLoad, Dst: 9, Tag: tag, Size: 8},
		{Op: ir.OpRet, A: 9, HasValue: true},
	}
	if n := Func(fn); n != 2 {
		t.Fatalf("removed %d loads, want 2", n)
	}
	want := []ir.Instr{
		{Op: ir.OpSLoad, Dst: 5, Tag: tag, Size: 8},
		{Op: ir.OpCopy, Dst: 2, A: 5},
		{Op: ir.OpCopy, Dst: 9, A: 5},
	}
	for i, w := range want {
		got := b.Instrs[i]
		if got.Op != w.Op || got.Dst != w.Dst || got.A != w.A {
			t.Errorf("instr %d = %v %v %v, want %v %v %v", i, got.Op, got.Dst, got.A, w.Op, w.Dst, w.A)
		}
	}
}
