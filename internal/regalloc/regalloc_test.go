package regalloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"regpromo/internal/interp"
	"regpromo/internal/ir"
	"regpromo/internal/opt/promote"
	"regpromo/internal/testgen"
	"regpromo/internal/testutil"
)

func alloc(t *testing.T, m *ir.Module, k int) Stats {
	t.Helper()
	st, err := Run(m, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("allocation broke the IL: %v", err)
	}
	return st
}

func TestAllocationPreservesBehaviour(t *testing.T) {
	src := `
int g;
int helper(int a, int b, int c) { return a * b + c; }
int main(void) {
	int i;
	int acc;
	acc = 0;
	for (i = 0; i < 50; i++) {
		acc = (acc + helper(i, i + 1, i + 2)) & 1048575;
		g ^= acc;
	}
	print_int(acc);
	print_int(g);
	return 0;
}
`
	want := testutil.Run(t, testutil.Compile(t, src))
	for _, k := range []int{32, 8, 6, 4} {
		m := testutil.Compile(t, src)
		alloc(t, m, k)
		testutil.MustBehaveLike(t, m, want)
	}
}

func TestRegisterCountBounded(t *testing.T) {
	m := testutil.Compile(t, `
int main(void) {
	int a; int b; int c; int d; int e;
	a = 1; b = 2; c = 3; d = 4; e = 5;
	return a + b + c + d + e;
}
`)
	alloc(t, m, 8)
	for _, fn := range m.FuncsInOrder() {
		if !fn.Allocated {
			t.Fatalf("%s not marked allocated", fn.Name)
		}
		if fn.NumRegs > 8 {
			t.Fatalf("%s uses %d registers with K=8", fn.Name, fn.NumRegs)
		}
	}
}

func TestCoalescingRemovesPromotionCopies(t *testing.T) {
	// Promotion turns in-loop references into copies; the allocator
	// must eliminate essentially all of them ("It is quite effective
	// at eliminating copies like these", §3.1 footnote).
	src := `
int total;
int main(void) {
	int i;
	for (i = 0; i < 100; i++) total += i;
	print_int(total);
	return 0;
}
`
	m := testutil.Compile(t, src)
	want := testutil.Run(t, testutil.Compile(t, src))
	promote.Run(m, promote.Options{})
	preAlloc, err := interp.Run(m, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := alloc(t, m, 32)
	postAlloc := testutil.MustBehaveLike(t, m, want)
	if st.Coalesced == 0 {
		t.Fatal("no copies coalesced")
	}
	if postAlloc.Counts.Copies >= preAlloc.Counts.Copies {
		t.Fatalf("dynamic copies should drop: %d -> %d",
			preAlloc.Counts.Copies, postAlloc.Counts.Copies)
	}
}

func TestSpillingUnderPressure(t *testing.T) {
	// More simultaneously-live values than registers: allocation must
	// spill (inserting real loads/stores) and still compute the right
	// answer.
	src := `
int main(void) {
	int a; int b; int c; int d; int e; int f; int g; int h;
	int i; int j;
	a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; g = 7; h = 8; i = 9; j = 10;
	/* keep all ten live across a computation */
	a = a + j; b = b + i; c = c + h; d = d + g; e = e + f;
	f = f + a; g = g + b; h = h + c; i = i + d; j = j + e;
	return a + b + c + d + e + f + g + h + i + j;
}
`
	want := testutil.Run(t, testutil.Compile(t, src))
	m := testutil.Compile(t, src)
	st := alloc(t, m, 4)
	if st.Spilled == 0 {
		t.Fatal("K=4 must spill")
	}
	got := testutil.MustBehaveLike(t, m, want)
	if got.Counts.Loads == 0 || got.Counts.Stores == 0 {
		t.Fatal("spill code must execute real memory operations")
	}
}

func TestRematerializationAvoidsMemory(t *testing.T) {
	// Constants under pressure re-issue loadI instead of spilling
	// through memory: no spill loads should appear for them.
	src := `
int data[32];
int main(void) {
	int i;
	int acc;
	acc = 0;
	for (i = 0; i < 32; i++) {
		data[i] = i * 3 + (1 << 6) + 255 + 4095 + 65535;
	}
	for (i = 0; i < 32; i++) acc = (acc + data[i]) & 1048575;
	return acc & 127;
}
`
	want := testutil.Run(t, testutil.Compile(t, src))
	m := testutil.Compile(t, src)
	st := alloc(t, m, 6)
	testutil.MustBehaveLike(t, m, want)
	// With rematerialization available, spill stores should be far
	// fewer than total "spilled" classes would suggest.
	if st.Spilled > 0 && st.SpillStores > st.Spilled*4 {
		t.Fatalf("suspiciously heavy spill traffic: %+v", st)
	}
}

func TestParamsGetDistinctHomes(t *testing.T) {
	src := `
int f(int a, int b, int c) { return a * 100 + b * 10 + c; }
int main(void) { return f(1, 2, 3) & 127; }
`
	want := testutil.Run(t, testutil.Compile(t, src))
	m := testutil.Compile(t, src)
	alloc(t, m, 8)
	f := m.Funcs["f"]
	seen := map[ir.Reg]bool{}
	for _, p := range f.Params {
		if seen[p] {
			t.Fatalf("two parameters share register r%d", p)
		}
		seen[p] = true
	}
	testutil.MustBehaveLike(t, m, want)
}

// TestRandomProgramsSurviveAllocation is the allocator's property
// test: random programs behave identically at every feasible K.
func TestRandomProgramsSurviveAllocation(t *testing.T) {
	count := 25
	if testing.Short() {
		count = 5
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := testgen.Program(rng.Int63())
		want := testutil.Run(t, testutil.Compile(t, src))
		for _, k := range []int{32, 10, 6} {
			m := testutil.Compile(t, src)
			if _, err := Run(m, Options{K: k}); err != nil {
				t.Logf("K=%d: %v", k, err)
				return false
			}
			got, err := interp.Run(m, interp.Options{})
			if err != nil {
				t.Logf("K=%d: %v\n%s", k, err, src)
				return false
			}
			if got.Output != want.Output || got.Exit != want.Exit {
				t.Logf("K=%d diverged\n%s", k, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

func TestLivenessComputation(t *testing.T) {
	// Build: entry defines r0, loop uses r0 and defines r1, exit uses
	// r1. r0 must be live around the loop.
	fn := &ir.Func{Name: "t"}
	entry := fn.NewBlock("")
	loop := fn.NewBlock("")
	exit := fn.NewBlock("")
	fn.Entry = entry
	r0 := fn.NewReg()
	r1 := fn.NewReg()
	entry.Instrs = []ir.Instr{
		{Op: ir.OpLoadI, Dst: r0, Imm: 1},
		{Op: ir.OpBr},
	}
	ir.AddEdge(entry, loop)
	loop.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Dst: r1, A: r0, B: r0},
		{Op: ir.OpCBr, A: r1},
	}
	ir.AddEdge(loop, loop)
	ir.AddEdge(loop, exit)
	exit.Instrs = []ir.Instr{{Op: ir.OpRet, A: r1, HasValue: true}}
	fn.HasVarRet = true

	lv := computeLiveness(fn, nil)
	if !lv.liveOut[entry.ID].has(r0) {
		t.Fatal("r0 must be live out of entry")
	}
	if !lv.liveIn[loop.ID].has(r0) {
		t.Fatal("r0 must be live into the loop (used every iteration)")
	}
	if !lv.liveOut[loop.ID].has(r1) {
		t.Fatal("r1 must be live out of the loop (returned)")
	}
	if lv.liveIn[entry.ID].has(r0) {
		t.Fatal("r0 is defined in entry, not live into it")
	}
}
