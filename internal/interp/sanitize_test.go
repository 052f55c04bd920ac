package interp_test

// Seeded-defect tests for the analysis-soundness sanitizer: compile a
// real program, surgically prune a call site's static MOD or REF
// summary (exactly the unsound result a broken analysis would
// produce), and check that executing under Options.Sanitize reports
// the pruned tag with full provenance — on both engines, since the
// flat lowering carries source-instruction back-pointers.

import (
	"strings"
	"testing"

	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/ir"
)

// findTag resolves a tag by name or fails the test.
func findTag(t *testing.T, m *ir.Module, name string) ir.TagID {
	t.Helper()
	for _, tag := range m.Tags.All() {
		if tag.Name == name {
			return tag.ID
		}
	}
	t.Fatalf("no tag named %q", name)
	return ir.TagInvalid
}

// findCall returns main's call to callee, with its provenance.
func findCall(t *testing.T, m *ir.Module, callee string) (in *ir.Instr, block string, index int) {
	t.Helper()
	for _, b := range m.Funcs["main"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpJsr && b.Instrs[i].Callee() == callee {
				return &b.Instrs[i], b.Label, i
			}
		}
	}
	t.Fatalf("main never calls %q", callee)
	return nil, "", 0
}

func engines() []interp.Engine {
	return []interp.Engine{interp.EngineFlat, interp.EngineSwitch}
}

func TestSanitizerCatchesPrunedModSet(t *testing.T) {
	const src = `
int g;
void f(void) { g = 1; }
int main(void) { f(); return g; }
`
	c, err := driver.CompileSource("pruned_mod.c", src, driver.Config{Analysis: driver.ModRef})
	if err != nil {
		t.Fatal(err)
	}
	gid := findTag(t, c.Module, "g")
	call, block, index := findCall(t, c.Module, "f")
	if !call.Mods().Has(gid) {
		t.Fatalf("MOD/REF analysis lost g at the call site; mods = %v", call.Mods())
	}
	// The seeded defect: an unsound analysis that "proved" f does not
	// modify g.
	call.SetEffects(call.Mods().Minus(ir.NewTagSet(gid)), call.Refs())

	for _, engine := range engines() {
		res, err := c.Execute(interp.Options{MaxSteps: 1 << 20, Engine: engine, Sanitize: true})
		if err != nil {
			t.Fatalf("engine %v: %v", engine, err)
		}
		if res.Exit != 1 {
			t.Fatalf("engine %v: exit = %d, want 1 (program behaviour must not change)", engine, res.Exit)
		}
		if len(res.Violations) != 1 {
			t.Fatalf("engine %v: %d violations %v, want 1", engine, len(res.Violations), res.Violations)
		}
		d := res.Violations[0]
		if d.Check != "sanitize.mod" {
			t.Errorf("engine %v: check = %q, want sanitize.mod", engine, d.Check)
		}
		if d.Func != "main" || d.Block != block || d.Index != index || d.Op != ir.OpJsr {
			t.Errorf("engine %v: provenance = %s/%s#%d %v, want main/%s#%d jsr",
				engine, d.Func, d.Block, d.Index, d.Op, block, index)
		}
		if !strings.Contains(d.Msg, `"g"`) || !strings.Contains(d.Msg, "f") || !strings.Contains(d.Msg, "MOD") {
			t.Errorf("engine %v: msg = %q, want the callee, the tag, and the set named", engine, d.Msg)
		}
	}
}

func TestSanitizerCatchesPrunedRefSet(t *testing.T) {
	const src = `
int g = 5;
int f(void) { return g; }
int main(void) { return f(); }
`
	c, err := driver.CompileSource("pruned_ref.c", src, driver.Config{Analysis: driver.ModRef})
	if err != nil {
		t.Fatal(err)
	}
	gid := findTag(t, c.Module, "g")
	call, _, _ := findCall(t, c.Module, "f")
	call.SetEffects(call.Mods(), call.Refs().Minus(ir.NewTagSet(gid)))

	for _, engine := range engines() {
		res, err := c.Execute(interp.Options{MaxSteps: 1 << 20, Engine: engine, Sanitize: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 1 || res.Violations[0].Check != "sanitize.ref" {
			t.Fatalf("engine %v: violations = %v, want one sanitize.ref", engine, res.Violations)
		}
	}
}

func TestSanitizerCatchesPrunedPointsToSet(t *testing.T) {
	// The pointer comes out of a call so the front end cannot fold
	// the store into a direct sStore; points-to narrows the pStore's
	// may-set to {a, b}, and at run time it resolves to a.
	const src = `
int a, b;
int *pick(int x) { if (x) return &a; return &b; }
int main(void) {
	int *p = pick(1);
	*p = 3;
	return a + b;
}
`
	c, err := driver.CompileSource("pruned_ptr.c", src, driver.Config{Analysis: driver.PointsTo, DisableOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	aid := findTag(t, c.Module, "a")
	// Find the pStore through p and prune a from its may-set, leaving
	// it non-⊤ (point it at b instead).
	bid := findTag(t, c.Module, "b")
	var pruned bool
	for _, bb := range c.Module.Funcs["main"].Blocks {
		for i := range bb.Instrs {
			in := &bb.Instrs[i]
			if in.Op == ir.OpPStore && in.Tags().Has(aid) {
				in.SetTags(ir.NewTagSet(bid))
				pruned = true
			}
		}
	}
	if !pruned {
		t.Fatal("no pStore of a in the unoptimized module; nothing to seed")
	}
	for _, engine := range engines() {
		res, err := c.Execute(interp.Options{MaxSteps: 1 << 20, Engine: engine, Sanitize: true})
		if err != nil {
			t.Fatal(err)
		}
		var found bool
		for _, d := range res.Violations {
			if d.Check == "sanitize.ptr" && strings.Contains(d.Msg, `"a"`) {
				found = true
			}
		}
		if !found {
			t.Fatalf("engine %v: violations = %v, want a sanitize.ptr naming a", engine, res.Violations)
		}
	}
}

// TestSanitizerCleanOnHonestAnalysis is the false-positive gate on
// real code: an unmodified compilation must execute violation-free.
func TestSanitizerCleanOnHonestAnalysis(t *testing.T) {
	const src = `
int g;
int acc(int x) { g = g + x; return g; }
int main(void) {
	int i;
	int s = 0;
	for (i = 0; i < 10; i++) s = acc(i);
	return s;
}
`
	for _, nc := range driver.DifferentialConfigurations(true) {
		c, err := driver.CompileSource("clean.c", src, nc.Config)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range engines() {
			res, err := c.Execute(interp.Options{MaxSteps: 1 << 24, Engine: engine, Sanitize: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("%s engine %v: spurious violations %v", nc.Name, engine, res.Violations)
			}
		}
	}
}

// BenchmarkSanitizerOverhead measures what Options.Sanitize costs when
// on. The flat engine carries no sanitizer hook, so a sanitized run
// moves to the switch engine: the off/on delta is the sanitizer's
// price plus the change of engine.
func BenchmarkSanitizerOverhead(b *testing.B) {
	c := compileProgram(b, "mlink")
	for _, mode := range []struct {
		name     string
		sanitize bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				res, err := c.Execute(interp.Options{
					MaxSteps: 1 << 33, Engine: interp.EngineFlat, Sanitize: mode.sanitize,
				})
				if err != nil {
					b.Fatal(err)
				}
				ops += res.Counts.Ops
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(ops)/secs, "interp-ops/sec")
			}
		})
	}
}
