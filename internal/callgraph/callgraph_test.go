package callgraph

import (
	"testing"

	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/ir"
)

func build(t *testing.T, src string) (*ir.Module, *Graph) {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	m, err := irgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return m, Build(m)
}

func TestDirectEdges(t *testing.T) {
	_, g := build(t, `
void c(void) { }
void b(void) { c(); }
void a(void) { b(); c(); }
`)
	if len(g.Callees["a"]) != 2 {
		t.Fatalf("a calls %v", g.Callees["a"])
	}
	if len(g.Callees["c"]) != 0 {
		t.Fatalf("c calls %v", g.Callees["c"])
	}
}

func TestSCCsReverseTopological(t *testing.T) {
	_, g := build(t, `
void leaf(void) { }
void mid(void) { leaf(); }
void top(void) { mid(); }
`)
	pos := map[string]int{}
	for i, comp := range g.SCCs {
		for _, f := range comp {
			pos[f] = i
		}
	}
	if !(pos["leaf"] < pos["mid"] && pos["mid"] < pos["top"]) {
		t.Fatalf("order: %v", g.SCCs)
	}
}

func TestMutualRecursionOneSCC(t *testing.T) {
	_, g := build(t, `
int odd(int n);
int even(int n) { if (n == 0) return 1; return odd(n-1); }
int odd(int n) { if (n == 0) return 0; return even(n-1); }
void driver(void) { even(4); }
`)
	if g.SCCOf("even") != g.SCCOf("odd") {
		t.Fatal("mutual recursion must share an SCC")
	}
	if g.SCCOf("driver") == g.SCCOf("even") {
		t.Fatal("driver is not in the cycle")
	}
	if !g.InCycle("even") || !g.InCycle("odd") || g.InCycle("driver") {
		t.Fatal("InCycle wrong")
	}
}

func TestSelfRecursion(t *testing.T) {
	_, g := build(t, `
int fact(int n) { if (n <= 1) return 1; return n * fact(n-1); }
`)
	if !g.InCycle("fact") {
		t.Fatal("self recursion is a cycle")
	}
	if len(g.SCCs[g.SCCOf("fact")]) != 1 {
		t.Fatal("self loop is a singleton SCC")
	}
}

func TestIndirectCallsTargetAddressedFunctions(t *testing.T) {
	_, g := build(t, `
void fa(void) { }
void fb(void) { }
void fc(void) { }
void run(void (*f)(void)) { f(); }
int main(void) { run(fa); run(fb); return 0; }
`)
	if !g.HasIndirect["run"] {
		t.Fatal("run has an indirect call")
	}
	callees := map[string]bool{}
	for _, c := range g.Callees["run"] {
		callees[c] = true
	}
	if !callees["fa"] || !callees["fb"] {
		t.Fatalf("run should target both addressed functions: %v", g.Callees["run"])
	}
	if callees["fc"] {
		t.Fatal("fc is never addressed")
	}
}

func TestIndirectCallsUsePinnedTargets(t *testing.T) {
	m, _ := build(t, `
void fa(void) { }
void fb(void) { }
void run(void (*f)(void)) { f(); }
int main(void) { run(fa); run(fb); return 0; }
`)
	// Simulate points-to pinning the indirect call to fa only.
	for _, b := range m.Funcs["run"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpJsr && b.Instrs[i].Callee() == "" {
				b.Instrs[i].SetTargets([]string{"fa"})
			}
		}
	}
	g := Build(m)
	for _, c := range g.Callees["run"] {
		if c == "fb" {
			t.Fatal("pinned target set should exclude fb")
		}
	}
}

func TestIntrinsicsAreNotEdges(t *testing.T) {
	_, g := build(t, `
int main(void) { print_int(3); return 0; }
`)
	if len(g.Callees["main"]) != 0 {
		t.Fatalf("intrinsics are not call-graph edges: %v", g.Callees["main"])
	}
}
