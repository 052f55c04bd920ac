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

// dirtyNames maps a DirtySCCs result back to the member-name sets for
// assertion convenience.
func dirtyNames(g *Graph, changed ...string) map[string]bool {
	out := map[string]bool{}
	for _, idx := range g.DirtySCCs(changed) {
		for _, f := range g.SCCs[idx] {
			out[f] = true
		}
	}
	return out
}

// TestDirtySCCsDisjointChains: editing one call chain must leave a
// disjoint chain entirely clean — that cleanliness is the whole point
// of incremental re-analysis.
func TestDirtySCCsDisjointChains(t *testing.T) {
	_, g := build(t, `
void aleaf(void) { }
void atop(void) { aleaf(); }
void bleaf(void) { }
void btop(void) { bleaf(); }
`)
	d := dirtyNames(g, "aleaf")
	if !d["aleaf"] || !d["atop"] {
		t.Fatalf("editing aleaf must dirty its chain: %v", d)
	}
	if d["bleaf"] || d["btop"] {
		t.Fatalf("disjoint chain must stay clean: %v", d)
	}
}

// TestDirtySCCsBothDirections: an edit dirties ancestors (summaries
// flow callees to callers) and descendants (visible sets flow callers
// to callees), but not siblings reachable from neither direction.
func TestDirtySCCsBothDirections(t *testing.T) {
	_, g := build(t, `
void leaf(void) { }
void mid(void) { leaf(); }
void top(void) { mid(); }
void other(void) { }
`)
	d := dirtyNames(g, "mid")
	for _, f := range []string{"leaf", "mid", "top"} {
		if !d[f] {
			t.Fatalf("editing mid must dirty %s: %v", f, d)
		}
	}
	if d["other"] {
		t.Fatalf("unconnected function must stay clean: %v", d)
	}
}

// TestDirtySCCsRecursionCycle: editing one member of a mutual
// recursion dirties the whole component and its callers.
func TestDirtySCCsRecursionCycle(t *testing.T) {
	_, g := build(t, `
int odd(int n);
int even(int n) { if (n == 0) return 1; return odd(n-1); }
int odd(int n) { if (n == 0) return 0; return even(n-1); }
void driver(void) { even(4); }
void bystander(void) { }
`)
	d := dirtyNames(g, "odd")
	if !d["odd"] || !d["even"] || !d["driver"] {
		t.Fatalf("cycle edit must dirty the component and its callers: %v", d)
	}
	if d["bystander"] {
		t.Fatalf("bystander must stay clean: %v", d)
	}
}

// TestDirtySCCsOrderAndUnknowns: the result is ascending SCC indices
// (reverse topological order), and unknown names contribute nothing.
func TestDirtySCCsOrderAndUnknowns(t *testing.T) {
	_, g := build(t, `
void leaf(void) { }
void mid(void) { leaf(); }
void top(void) { mid(); }
`)
	dirty := g.DirtySCCs([]string{"mid", "nosuchfunction"})
	for i := 1; i < len(dirty); i++ {
		if dirty[i-1] >= dirty[i] {
			t.Fatalf("dirty set not in reverse topological order: %v", dirty)
		}
	}
	if got := g.DirtySCCs([]string{"nosuchfunction"}); len(got) != 0 {
		t.Fatalf("unknown names alone must dirty nothing, got %v", got)
	}
	if got := g.DirtySCCs(nil); len(got) != 0 {
		t.Fatalf("empty change set must dirty nothing, got %v", got)
	}
}
