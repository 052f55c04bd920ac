package interp

import (
	"strings"
	"testing"

	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/ir"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	file, err := parser.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sema.Check(file)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	mod, err := irgen.Generate(prog)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	return mod
}

func TestCharSignExtension(t *testing.T) {
	res, err := Run(compile(t, `
char c;
int main(void) {
	c = 200;       /* stores 0xC8; signed char reads back negative */
	if (c < 0) return 1;
	return 0;
}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 1 {
		t.Fatalf("char must sign-extend: exit=%d", res.Exit)
	}
}

func TestIntTruncationAtStore(t *testing.T) {
	res, err := Run(compile(t, `
int g;
int main(void) {
	long big;
	big = 4294967296 + 5;   /* 2^32 + 5 */
	g = big;                /* store truncates to 32 bits */
	return g;
}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 5 {
		t.Fatalf("int store must truncate: exit=%d", res.Exit)
	}
}

func TestFrameIsolationAcrossCalls(t *testing.T) {
	res, err := Run(compile(t, `
int probe(int depth) {
	int local[4];
	int i;
	for (i = 0; i < 4; i++) local[i] = depth * 10 + i;
	if (depth > 0) probe(depth - 1);
	/* callee frames must not have clobbered ours */
	for (i = 0; i < 4; i++) {
		if (local[i] != depth * 10 + i) return 0;
	}
	return 1;
}
int main(void) { return probe(5); }`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 1 {
		t.Fatal("recursive frames overlapped")
	}
}

func TestFreshFramesAreZeroed(t *testing.T) {
	res, err := Run(compile(t, `
int dirty(void) {
	int scratch[8];
	int i;
	for (i = 0; i < 8; i++) scratch[i] = 12345;
	return 0;
}
int reader(void) {
	int scratch[8];
	int i;
	int sum;
	sum = 0;
	for (i = 0; i < 8; i++) sum += scratch[i];
	return sum;
}
int main(void) {
	dirty();
	return reader();   /* occupies the same stack region */
}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 0 {
		t.Fatalf("uninitialized locals must read zero, got %d", res.Exit)
	}
}

func TestStackOverflowDetected(t *testing.T) {
	_, err := Run(compile(t, `
int deep(int n) {
	int pad[512];
	pad[0] = n;
	return deep(n + 1) + pad[0];
}
int main(void) { return deep(0); }`), Options{})
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("want stack overflow, got %v", err)
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	for _, op := range []string{"/", "%"} {
		_, err := Run(compile(t, `
int z;
int main(void) { return 10 `+op+` z; }`), Options{})
		if err == nil || !strings.Contains(err.Error(), "zero") {
			t.Fatalf("%s: want division fault, got %v", op, err)
		}
	}
}

func TestOutOfBoundsHeapAccessFaults(t *testing.T) {
	_, err := Run(compile(t, `
int main(void) {
	int *p;
	p = (int *) malloc(8);
	return p[1000000];
}`), Options{})
	if err == nil {
		t.Fatal("far out-of-bounds heap access must fault")
	}
}

func TestIndirectCallThroughBadPointerFaults(t *testing.T) {
	_, err := Run(compile(t, `
int main(void) {
	int (*f)(void);
	f = (int (*)(void)) 12345;
	return f();
}`), Options{})
	if err == nil || !strings.Contains(err.Error(), "indirect call") {
		t.Fatalf("want indirect-call fault, got %v", err)
	}
}

func TestGlobalInitializersLoaded(t *testing.T) {
	res, err := Run(compile(t, `
int scalars[3] = {11, 22, 33};
double d = 2.5;
char text[8] = "ok";
int *alias = &scalars[0];
int main(void) {
	if (d != 2.5) return 1;
	if (text[0] != 'o' || text[1] != 'k' || text[2] != 0) return 2;
	if (*alias != 11) return 3;
	return scalars[0] + scalars[1] + scalars[2];
}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 66 {
		t.Fatalf("exit = %d", res.Exit)
	}
}

func TestNegativeModAndDivision(t *testing.T) {
	res, err := Run(compile(t, `
int main(void) {
	int a;
	int b;
	a = -7 / 2;    /* C truncates toward zero: -3 */
	b = -7 % 2;    /* sign follows dividend: -1 */
	if (a != -3) return 1;
	if (b != -1) return 2;
	return 0;
}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 0 {
		t.Fatalf("exit = %d", res.Exit)
	}
}

func TestShiftMasking(t *testing.T) {
	res, err := Run(compile(t, `
int main(void) {
	long x;
	x = 1;
	x = x << 66;    /* count masked to 66 & 63 == 2 */
	return x;
}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 4 {
		t.Fatalf("exit = %d", res.Exit)
	}
}

func TestCountsSeparateCopiesAndCalls(t *testing.T) {
	res, err := Run(compile(t, `
int id(int v) { return v; }
int main(void) {
	int a;
	a = id(1) + id(2) + id(3);
	return a;
}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Calls != 3 {
		t.Fatalf("calls = %d", res.Counts.Calls)
	}
	if res.Counts.Ops < res.Counts.Calls {
		t.Fatal("total must include calls")
	}
}

// TestOwnerResolution: a pointer load is attributed to the tag owning
// its address, for a global scalar, a global array and a stack local.
// Nothing here reads g, arr or l except through touch's pointer, so
// every load in their profile rows was resolved by ownerOf.
func TestOwnerResolution(t *testing.T) {
	mod := compile(t, `
int g;
int arr[4];
int touch(int *p) { return *p; }
int main(void) {
	int l;
	l = 5;
	return touch(&g) + touch(&arr[2]) + touch(&l);
}`)
	res, err := Run(mod, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]bool{}
	for _, tc := range res.Profile.Tags {
		if tc.Loads > 0 {
			owners[tc.Tag] = true
		}
	}
	if !owners["g"] || !owners["arr"] {
		t.Fatalf("owners = %v", owners)
	}
	foundLocal := false
	for name := range owners {
		if strings.Contains(name, "main.l") {
			foundLocal = true
		}
	}
	if !foundLocal {
		t.Fatalf("stack owner not resolved: %v", owners)
	}
}

func TestHeapGrowth(t *testing.T) {
	res, err := Run(compile(t, `
int main(void) {
	int i;
	long total;
	total = 0;
	for (i = 0; i < 100; i++) {
		char *p;
		p = (char *) malloc(10000);
		p[9999] = i & 127;
		total += p[9999];
	}
	return total & 127;
}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}
