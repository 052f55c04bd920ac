package modref

import (
	"testing"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/callgraph"
	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/ir"
	"regpromo/internal/testgen"
)

func buildModule(t *testing.T, src string) (*ir.Module, *callgraph.Graph) {
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
	return m, callgraph.Build(m)
}

// dirtySCCs counts the components whose facts may change when changed's
// body does: its own, every component that can call into it (MOD/REF
// summaries flow callees to callers) and every component it can call
// into (visible sets flow callers to callees). Successors of
// component i always have smaller indices.
func dirtySCCs(g *callgraph.Graph, changed string) int {
	n := len(g.SCCs)
	up := make([]bool, n)   // can reach the changed component
	down := make([]bool, n) // reachable from it
	up[g.SCCOf(changed)], down[g.SCCOf(changed)] = true, true
	for i := 0; i < n; i++ {
		for _, j := range g.SCCSuccs(i) {
			up[i] = up[i] || up[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for _, j := range g.SCCSuccs(i) {
			down[j] = down[j] || down[i]
		}
	}
	dirty := 0
	for i := range up {
		if up[i] || down[i] {
			dirty++
		}
	}
	return dirty
}

// TestIncrementalMatchesScratch is the dirty-set property on a real
// generated module: analyze a base program into a fresh store, analyze
// a one-function-edited variant warm against it, and the warm result
// must equal a from-scratch analysis of the edited module on every
// function — while re-solving no more components than dirtySCCs
// licenses.
func TestIncrementalMatchesScratch(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		const funcs = 40
		edit := int(seed) * 7 % funcs
		base := testgen.Scale(testgen.ScaleOptions{Seed: seed, Funcs: funcs, Edit: -1})
		edited := testgen.Scale(testgen.ScaleOptions{Seed: seed, Funcs: funcs, Edit: edit})

		store := cache.NewStore()
		m0, cg0 := buildModule(t, base)
		Analyze(m0, cg0, store)

		mWarm, cgWarm := buildModule(t, edited)
		warm := Analyze(mWarm, cgWarm, store)
		mCold, cgCold := buildModule(t, edited)
		scratch := Analyze(mCold, cgCold, nil)

		for _, name := range mCold.FuncOrder {
			if !warm.Mod(name).Equal(scratch.Mod(name)) || !warm.Ref(name).Equal(scratch.Ref(name)) {
				t.Fatalf("seed %d: warm summary of %s differs from scratch", seed, name)
			}
			if !warm.Visible(name).Equal(scratch.Visible(name)) {
				t.Fatalf("seed %d: warm visible set of %s differs from scratch", seed, name)
			}
		}

		dirty := dirtySCCs(cgWarm, testgen.ScaleFuncName(edit))
		if warm.SCCsSolved == 0 {
			t.Fatalf("seed %d: the edited component must re-solve", seed)
		}
		if warm.SCCsSolved > dirty {
			t.Fatalf("seed %d: warm run solved %d components, but only %d are dirty",
				seed, warm.SCCsSolved, dirty)
		}
		if warm.SCCsCached == 0 || warm.SCCsSolved+warm.SCCsCached != len(cgWarm.SCCs) {
			t.Fatalf("seed %d: solved %d + cached %d must cover all %d components with reuse",
				seed, warm.SCCsSolved, warm.SCCsCached, len(cgWarm.SCCs))
		}
	}
}

// TestIncrementalCallEdgeChange: adding or removing a call edge is a
// structural edit; the warm result must still match scratch exactly in
// both directions.
func TestIncrementalCallEdgeChange(t *testing.T) {
	withCall := `
int g;
int h;
void touch(void) { g = g + 1; }
void spine(void) { h = h + 1; touch(); }
int main(void) { spine(); print_int(g + h); return 0; }
`
	withoutCall := `
int g;
int h;
void touch(void) { g = g + 1; }
void spine(void) { h = h + 1; }
int main(void) { spine(); print_int(g + h); return 0; }
`
	for _, dir := range []struct{ name, cold, warm string }{
		{"remove", withCall, withoutCall},
		{"add", withoutCall, withCall},
	} {
		store := cache.NewStore()
		m0, cg0 := buildModule(t, dir.cold)
		Analyze(m0, cg0, store)

		mWarm, cgWarm := buildModule(t, dir.warm)
		warm := Analyze(mWarm, cgWarm, store)
		mCold, cgCold := buildModule(t, dir.warm)
		scratch := Analyze(mCold, cgCold, nil)

		for _, name := range mCold.FuncOrder {
			if !warm.Mod(name).Equal(scratch.Mod(name)) || !warm.Ref(name).Equal(scratch.Ref(name)) {
				t.Fatalf("%s: warm summary of %s differs from scratch", dir.name, name)
			}
		}
		// spine's summary changes, so spine and its caller must re-solve;
		// touch is a clean leaf either way.
		if warm.SCCsSolved < 2 {
			t.Fatalf("%s: expected spine and main to re-solve, solved %d", dir.name, warm.SCCsSolved)
		}
	}
}
