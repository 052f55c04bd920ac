package pointsto

import (
	"testing"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/analysis/modref"
	"regpromo/internal/callgraph"
	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/ir"
	"regpromo/internal/testgen"
)

// buildAnalyzed compiles src through the front end and the MOD/REF
// pre-passes, leaving the module in the state Solve sees in the real
// pipeline.
func buildAnalyzed(t testing.TB, src string) (*ir.Module, *callgraph.Graph) {
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
	cg := callgraph.Build(m)
	modref.Run(m, cg)
	return m, cg
}

// TestConstantEditReplaysCachedNarrowing: the projection key excludes
// literal operands, so a constant-only edit must replay the cached
// module narrowing — marked Cached, with zero components solved — and
// the replayed IL must be byte-identical to solving the edited module
// from scratch.
func TestConstantEditReplaysCachedNarrowing(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		const funcs = 30
		base := testgen.Scale(testgen.ScaleOptions{Seed: seed, Funcs: funcs, Edit: -1})
		edited := testgen.Scale(testgen.ScaleOptions{Seed: seed, Funcs: funcs, Edit: funcs / 2})

		store := cache.NewStore()
		m0, cg0 := buildAnalyzed(t, base)
		cold := Solve(m0, cg0, store)
		if cold.Cached {
			t.Fatalf("seed %d: first solve cannot hit", seed)
		}

		mWarm, cgWarm := buildAnalyzed(t, edited)
		warm := Solve(mWarm, cgWarm, store)
		if !warm.Cached {
			t.Fatalf("seed %d: constant-only edit must replay the cached narrowing", seed)
		}
		if warm.Steps != cold.Steps {
			t.Fatalf("seed %d: replayed step count %d != recorded %d", seed, warm.Steps, cold.Steps)
		}

		mCold, cgCold := buildAnalyzed(t, edited)
		Solve(mCold, cgCold, nil)
		if ir.FormatModule(mWarm) != ir.FormatModule(mCold) {
			t.Fatalf("seed %d: replayed narrowing differs from scratch solve", seed)
		}
	}
}

// TestStructuralEditMissesAndMatchesScratch: an edit the solver can
// see (a changed address-of) must miss the projection cache, and the
// fresh solve must still agree with scratch.
func TestStructuralEditMissesAndMatchesScratch(t *testing.T) {
	baseSrc := `
int a;
int b;
int main(void) { int *p; p = &a; *p = 1; print_int(a + b); return 0; }
`
	editedSrc := `
int a;
int b;
int main(void) { int *p; p = &b; *p = 1; print_int(a + b); return 0; }
`
	store := cache.NewStore()
	m0, cg0 := buildAnalyzed(t, baseSrc)
	Solve(m0, cg0, store)

	mWarm, cgWarm := buildAnalyzed(t, editedSrc)
	warm := Solve(mWarm, cgWarm, store)
	if warm.Cached {
		t.Fatal("a structural pointer edit must not replay the old narrowing")
	}
	mCold, cgCold := buildAnalyzed(t, editedSrc)
	Solve(mCold, cgCold, nil)
	if ir.FormatModule(mWarm) != ir.FormatModule(mCold) {
		t.Fatal("post-miss solve differs from scratch")
	}
}
