package licm

import (
	"slices"
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

// TestHoistKeepsUseRowsExact builds two nested loops by hand:
//
//	B0: a = 3; c = 0              (outer landing pad)
//	B1: r = a + a; cbr c B2 B3    (outer header)
//	B2: t = r * r; cbr t B2 B3    (inner loop)
//	B3: cbr c B1 B4               (outer latch)
//	B4: ret a
//
// The inner pass hoists t's multiply, and with it both uses of r, into
// the inner loop's landing pad; the outer pass must then judge r's
// definition in B1 against that pad and hoist it to B0. After each
// pass the incrementally kept use rows must equal rows counted afresh,
// and dominatesAllUses must agree with a scan of the whole function.
func TestHoistKeepsUseRowsExact(t *testing.T) {
	fn := &ir.Func{Name: "nest"}
	b := make([]*ir.Block, 5)
	for i := range b {
		b[i] = fn.NewBlock("")
	}
	fn.Entry = b[0]
	a, c, r, tt := fn.NewReg(), fn.NewReg(), fn.NewReg(), fn.NewReg()
	b[0].Instrs = []ir.Instr{{Op: ir.OpLoadI, Dst: a, Imm: 3}, {Op: ir.OpLoadI, Dst: c, Imm: 0}, {Op: ir.OpBr}}
	b[1].Instrs = []ir.Instr{{Op: ir.OpAdd, Dst: r, A: a, B: a}, {Op: ir.OpCBr, A: c}}
	b[2].Instrs = []ir.Instr{{Op: ir.OpMul, Dst: tt, A: r, B: r}, {Op: ir.OpCBr, A: tt}}
	b[3].Instrs = []ir.Instr{{Op: ir.OpCBr, A: c}}
	b[4].Instrs = []ir.Instr{{Op: ir.OpRet, A: a, HasValue: true}}
	fn.HasVarRet = true
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 2}, {2, 3}, {3, 1}, {3, 4}} {
		ir.AddEdge(b[e[0]], b[e[1]])
	}

	dom, forest := cfg.Normalize(fn)
	if len(forest.Loops) != 2 {
		t.Fatalf("want 2 loops, got %d", len(forest.Loops))
	}
	outer, inner := forest.Loops[0], forest.Loops[1]
	if inner.Parent != outer || inner.Pad == b[1] {
		t.Fatalf("want the inner loop nested with a pad of its own:\n%s", ir.FormatFunc(fn, nil))
	}
	st := newState(fn, dom)
	check := func(stage string) {
		t.Helper()
		fresh := newState(fn, dom)
		for reg := ir.Reg(0); int(reg) < fn.NumRegs; reg++ {
			got := slices.Clone(st.useBlock[st.useStart[reg]:st.useStart[reg+1]])
			want := slices.Clone(fresh.useBlock[fresh.useStart[reg]:fresh.useStart[reg+1]])
			byID := func(x, y *ir.Block) int { return int(x.ID) - int(y.ID) }
			slices.SortFunc(got, byID)
			slices.SortFunc(want, byID)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: use rows of r%d = %v, want %v", stage, reg, got, want)
			}
		}
		for _, blk := range fn.Blocks {
			for i := range blk.Instrs {
				if d := blk.Instrs[i].Def(); d != ir.RegInvalid {
					if got, want := st.dominatesAllUses(blk, i, d), scanDominatesAllUses(dom, fn, blk, i, d); got != want {
						t.Fatalf("%s: dominatesAllUses(%s, %d, r%d) = %v, scan says %v", stage, blk.Label, i, d, got, want)
					}
				}
			}
		}
	}
	defBlock := func(reg ir.Reg) *ir.Block {
		for _, blk := range fn.Blocks {
			for i := range blk.Instrs {
				if blk.Instrs[i].Def() == reg {
					return blk
				}
			}
		}
		return nil
	}

	if n := st.hoist(inner); n != 1 || defBlock(tt) != inner.Pad {
		t.Fatalf("inner pass moved %d, t defined in %v; want the multiply in %s", n, defBlock(tt), inner.Pad.Label)
	}
	if row := st.useBlock[st.useStart[r]:st.useStart[r+1]]; !slices.Equal(row, []*ir.Block{inner.Pad, inner.Pad}) {
		t.Fatalf("r's uses recorded in %v, want both in %s", row, inner.Pad.Label)
	}
	check("after the inner pass")
	st.hoist(outer)
	if defBlock(r) != outer.Pad {
		t.Fatalf("r defined in %v after the outer pass, want %s:\n%s", defBlock(r), outer.Pad.Label, ir.FormatFunc(fn, nil))
	}
	check("after the outer pass")
	if err := ir.VerifyFunc(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// scanDominatesAllUses is the reference for dominatesAllUses: it scans
// every instruction of the function for uses of r.
func scanDominatesAllUses(dom *cfg.DomTree, fn *ir.Func, db *ir.Block, di int, r ir.Reg) bool {
	var buf [8]ir.Reg
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			for _, u := range b.Instrs[i].Uses(buf[:0]) {
				if u != r {
					continue
				}
				if b == db {
					if i <= di {
						return false
					}
				} else if !dom.Dominates(db, b) {
					return false
				}
			}
		}
	}
	return true
}
