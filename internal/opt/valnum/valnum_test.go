package valnum

import (
	"math"
	"testing"

	"regpromo/internal/ir"
	"regpromo/internal/testgen"
	"regpromo/internal/testutil"
)

func TestRedundantComputationBecomesCopy(t *testing.T) {
	const src = `
int f(int a, int b) {
	int x;
	int y;
	x = a + b;
	y = a + b;
	return x * y;
}
int main(void) { return f(3, 4) & 127; }
`
	want := testutil.Run(t, testutil.Compile(t, src))
	m := testutil.Compile(t, src)
	n := Run(m)
	if n == 0 {
		t.Fatal("expected a CSE hit")
	}
	testutil.VerifyAll(t, m)
	testutil.MustBehaveLike(t, m, want)
}

func TestConstantFolding(t *testing.T) {
	m := testutil.Compile(t, `
int main(void) {
	int x;
	x = 3 * 4 + 2;
	return x;
}
`)
	Run(m)
	res := testutil.Run(t, m)
	if res.Exit != 14 {
		t.Fatalf("exit = %d", res.Exit)
	}
}

func TestCommutativityMatches(t *testing.T) {
	m := testutil.Compile(t, `
int f(int a, int b) {
	int x;
	int y;
	x = a + b;
	y = b + a;
	return x - y;
}
int main(void) { return f(5, 9); }
`)
	if n := Run(m); n == 0 {
		t.Fatal("a+b and b+a must value-number together")
	}
	if res := testutil.Run(t, m); res.Exit != 0 {
		t.Fatalf("exit = %d", res.Exit)
	}
}

func TestRedundantLoadRemovedWithinBlock(t *testing.T) {
	m := testutil.Compile(t, `
int g;
int main(void) {
	int a;
	int b;
	a = g;
	b = g;
	return a + b;
}
`)
	fn := m.Funcs["main"]
	before := testutil.CountOps(fn, ir.OpSLoad)
	Run(m)
	after := testutil.CountOps(fn, ir.OpSLoad)
	if after >= before {
		t.Fatalf("loads %d -> %d: second load of g should become a copy", before, after)
	}
}

func TestStoreForwardsToLoad(t *testing.T) {
	m := testutil.Compile(t, `
int g;
int main(void) {
	int a;
	g = 7;
	a = g;
	return a;
}
`)
	fn := m.Funcs["main"]
	Run(m)
	if testutil.CountOps(fn, ir.OpSLoad) != 0 {
		t.Fatalf("load after store of same tag should forward:\n%s", ir.FormatFunc(fn, &m.Tags))
	}
	if res := testutil.Run(t, m); res.Exit != 7 {
		t.Fatalf("exit = %d", res.Exit)
	}
}

func TestCallKillsMemoryFacts(t *testing.T) {
	m := testutil.Compile(t, `
int g;
void bump(void) { g++; }
int main(void) {
	int a;
	int b;
	a = g;
	bump();
	b = g;
	return a * 10 + b;
}
`)
	fn := m.Funcs["main"]
	before := testutil.CountOps(fn, ir.OpSLoad)
	Run(m)
	after := testutil.CountOps(fn, ir.OpSLoad)
	if after != before {
		t.Fatalf("loads across a clobbering call must stay: %d -> %d", before, after)
	}
	if res := testutil.Run(t, m); res.Exit != 1 {
		t.Fatalf("exit = %d, want 01", res.Exit)
	}
}

func TestPointerStoreKillsOnlyItsTags(t *testing.T) {
	m := testutil.Compile(t, `
int safe;
int arr[4];
int main(void) {
	int a;
	int b;
	int *p;
	p = &arr[1];
	a = safe;
	*p = 9;
	b = safe;     /* safe cannot alias arr: load is redundant */
	return a + b + arr[1];
}
`)
	fn := m.Funcs["main"]
	Run(m)
	// After numbering, only the initial load of safe remains.
	loads := 0
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpSLoad && m.Tags.Get(in.Tag).Name == "safe" {
				loads++
			}
		}
	}
	if loads != 1 {
		t.Fatalf("safe loaded %d times, want 1:\n%s", loads, ir.FormatFunc(fn, &m.Tags))
	}
	if res := testutil.Run(t, m); res.Exit != 9 {
		t.Fatalf("exit = %d", res.Exit)
	}
}

func TestRedefinitionInvalidatesFacts(t *testing.T) {
	// The register holding a CSE'd value is redefined between the
	// two computations: the second must NOT reuse it.
	m := testutil.Compile(t, `
int main(void) {
	int a;
	int x;
	a = 5;
	x = a + 1;     /* x = 6 */
	x = x + 1;     /* x = 7, redefines the holder */
	x = a + 1;     /* must recompute: 6, not stale */
	return x;
}
`)
	want := testutil.Run(t, m)
	if want.Exit != 6 {
		t.Fatalf("reference exit = %d", want.Exit)
	}
	m2 := testutil.Compile(t, `
int main(void) {
	int a;
	int x;
	a = 5;
	x = a + 1;
	x = x + 1;
	x = a + 1;
	return x;
}
`)
	Run(m2)
	testutil.MustBehaveLike(t, m2, want)
}

func TestDuplicateConstantsShareValueNumbers(t *testing.T) {
	m := testutil.Compile(t, `
int arr[16];
int main(void) {
	int i;
	arr[4] = 1;
	i = arr[4];
	return i + arr[4];
}
`)
	// The two arr[4] address computations use two loadI 4 constants;
	// after numbering both address chains collapse.
	fn := m.Funcs["main"]
	Run(m)
	adds := testutil.CountOps(fn, ir.OpAdd)
	// One address add shared by the three accesses (plus the final +).
	if adds > 3 {
		t.Fatalf("address computations did not collapse, %d adds:\n%s",
			adds, ir.FormatFunc(fn, &m.Tags))
	}
	if res := testutil.Run(t, m); res.Exit != 2 {
		t.Fatalf("exit = %d", res.Exit)
	}
}

// numberWith value-numbers fn with the tables s.
func numberWith(s *valnumState, fn *ir.Func) int {
	s.reset(fn.NumRegs)
	n := 0
	for _, b := range fn.Blocks {
		n += s.block(b)
	}
	return n
}

// TestReusedStateNumbersLikeFresh holds the pooled tables to fresh
// ones: one state carried across every function of several programs
// must rewrite each function exactly as a state made for it alone
// does.
func TestReusedStateNumbersLikeFresh(t *testing.T) {
	shared := newState()
	for seed := int64(1); seed <= 10; seed++ {
		src := testgen.Program(seed)
		fresh, reused := testutil.Compile(t, src), testutil.Compile(t, src)
		for _, name := range fresh.FuncOrder {
			want := numberWith(newState(), fresh.Funcs[name])
			if got := numberWith(shared, reused.Funcs[name]); got != want {
				t.Errorf("seed %d %s: reused state simplified %d, fresh %d", seed, name, got, want)
			}
		}
		if ir.FormatModule(reused) != ir.FormatModule(fresh) {
			t.Errorf("seed %d: reused tables numbered differently from fresh ones", seed)
		}
	}
}

// TestGenerationWrapForgetsStamps checks that a state whose
// generation stamp wraps does not read a register stamped one cycle
// earlier as known.
func TestGenerationWrapForgetsStamps(t *testing.T) {
	s := newState()
	s.reset(4)
	s.vn[2], s.vnGen[2] = 5, 1
	s.gen = math.MaxUint32
	for i := 0; i < 2; i++ {
		s.block(&ir.Block{})
		if v := s.known(2); v != 0 {
			t.Fatalf("block %d after the wrap: stale register reads as value %d", i, v)
		}
	}
}
