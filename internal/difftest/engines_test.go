package difftest

import (
	"fmt"
	"strings"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/ir"
	"regpromo/internal/par"
	"regpromo/internal/testgen"
)

// These tests hold the flat-code engine to byte equality with the
// block-walking switch engine — counts, exit codes, outputs, and error
// text — across the generated fuzz corpus and the full benchmark
// suite. The switch engine is the oracle: any disagreement is a bug in
// the flat lowering or dispatch, never a tolerable difference. The
// flat engine always runs plain; profiling is a switch-engine hook, so
// the switch run is profiled and its profile is checked against its
// own counts.

// engineSeeds is how many consecutive testgen seeds the engine
// differential covers (matching the CI fuzz smoke range).
const engineSeeds = 200

// compareEngines executes one compilation plainly on the flat engine
// and with profiling on the switch engine, and reports any observable
// difference or a profile that disagrees with the switch run's counts.
func compareEngines(label string, c *driver.Compilation, maxSteps int64) error {
	flat, ferr := c.Execute(interp.Options{MaxSteps: maxSteps, Engine: interp.EngineFlat})
	sw, serr := c.Execute(interp.Options{MaxSteps: maxSteps, Profile: true, Engine: interp.EngineSwitch})
	switch {
	case ferr != nil && serr != nil:
		if ferr.Error() != serr.Error() {
			return fmt.Errorf("%s: error divergence: flat %q, switch %q", label, ferr, serr)
		}
		return nil
	case ferr != nil || serr != nil:
		return fmt.Errorf("%s: one engine failed: flat err=%v, switch err=%v", label, ferr, serr)
	}
	if flat.Counts != sw.Counts {
		return fmt.Errorf("%s: counts diverge: flat %+v, switch %+v", label, flat.Counts, sw.Counts)
	}
	if flat.Exit != sw.Exit {
		return fmt.Errorf("%s: exit diverges: flat %d, switch %d", label, flat.Exit, sw.Exit)
	}
	if flat.Output != sw.Output {
		return fmt.Errorf("%s: output diverges: flat %q, switch %q", label, flat.Output, sw.Output)
	}
	if flat.Profile != nil {
		return fmt.Errorf("%s: a plain flat run returned a profile", label)
	}
	if sw.Profile == nil {
		return fmt.Errorf("%s: the profiled switch run returned no profile", label)
	}
	// Every executed load and store is attributed to exactly one tag
	// (or the untagged bucket).
	var loads, stores int64
	for _, tc := range sw.Profile.Tags {
		loads += tc.Loads
		stores += tc.Stores
	}
	if loads != sw.Counts.Loads || stores != sw.Counts.Stores {
		return fmt.Errorf("%s: profile traffic %d loads / %d stores, counts %d / %d",
			label, loads, stores, sw.Counts.Loads, sw.Counts.Stores)
	}
	return nil
}

// TestEnginesAgreeOnSeeds runs the fuzz corpus through every
// differential configuration on both engines.
func TestEnginesAgreeOnSeeds(t *testing.T) {
	seeds := engineSeeds
	if testing.Short() {
		seeds = 25
	}
	matrix := driver.DifferentialConfigurations(testing.Short())
	_, err := par.ParallelMap(seeds, 0, func(i int) (struct{}, error) {
		seed := int64(i)
		fe, err := driver.ParseSource(fmt.Sprintf("seed%d.c", seed), testgen.Program(seed))
		if err != nil {
			return struct{}{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		for _, nc := range matrix {
			c, err := fe.Compile(nc.Config, nil)
			if err != nil {
				return struct{}{}, fmt.Errorf("seed %d/%s: %w", seed, nc.Name, err)
			}
			if err := compareEngines(fmt.Sprintf("seed %d/%s", seed, nc.Name), c, MaxSteps); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEnginesAgreeOnBenchSuite runs every benchmark program through
// the paper's four measurement configurations on both engines.
func TestEnginesAgreeOnBenchSuite(t *testing.T) {
	programs := bench.Suite()
	if testing.Short() {
		programs = programs[:4]
	}
	_, err := par.ParallelMap(len(programs), 0, func(i int) (struct{}, error) {
		p := programs[i]
		fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
		if err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		for _, cfg := range driver.Configurations() {
			c, err := fe.Compile(cfg, nil)
			if err != nil {
				return struct{}{}, fmt.Errorf("%s: %w", p.Name, err)
			}
			label := fmt.Sprintf("%s/%s/promote=%v", p.Name, cfg.Analysis, cfg.Promote)
			if err := compareEngines(label, c, 1<<33); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBothEnginesFuzzMode exercises the Mode.BothEngines path
// end to end: a clean seed range must stay clean with the engine
// cross-check enabled.
func TestBothEnginesFuzzMode(t *testing.T) {
	report, err := Fuzz(FuzzOptions{Seeds: 10, Short: true, Mode: Mode{BothEngines: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failures) != 0 {
		t.Fatalf("both-engines fuzz found divergences:\n%s", report.Failures[0].Divergence)
	}
}

// TestNativeEngineFuzzMode runs a small seed range with the native
// backend in the engine matrix: every compilation is translated to
// machine code and held to output/exit/error/count parity with the
// flat engine. Kept to a few seeds — each (seed, config) pair is a
// full toolchain invocation — the broad sweep is rpfuzz's job.
func TestNativeEngineFuzzMode(t *testing.T) {
	if testing.Short() {
		t.Skip("native builds are toolchain invocations; skipped in -short")
	}
	report, err := Fuzz(FuzzOptions{Seeds: 3, Short: true, Mode: Mode{Engines: []interp.Engine{interp.EngineNative}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failures) != 0 {
		t.Fatalf("native-engine fuzz found divergences:\n%s", report.Failures[0].Divergence)
	}
}

// TestSanitizeFuzzMode exercises Mode.Sanitize end to end: a
// clean seed range must stay clean with the analysis-soundness
// sanitizer armed as the third oracle. (The oracle's ability to catch
// a real defect is proven by the seeded-corruption tests in
// internal/interp; here we pin the absence of false positives on
// honest compilations.)
func TestSanitizeFuzzMode(t *testing.T) {
	report, err := Fuzz(FuzzOptions{Start: 500, Seeds: 10, Short: true, Mode: Mode{Sanitize: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failures) != 0 {
		t.Fatalf("sanitize fuzz found divergences:\n%s", report.Failures[0].Divergence)
	}
}

// TestSanitizeAddsSwitchEngineOnce: the sanitizer is a switch-engine
// hook, so Sanitize brings the switch engine into the matrix, and
// combining it with BothEngines does not run that engine twice.
func TestSanitizeAddsSwitchEngineOnce(t *testing.T) {
	flat, sw, nat := interp.EngineFlat, interp.EngineSwitch, interp.EngineNative
	for _, tc := range []struct {
		mode Mode
		want []interp.Engine
	}{
		{Mode{}, []interp.Engine{flat}},
		{Mode{Sanitize: true}, []interp.Engine{flat, sw}},
		{Mode{BothEngines: true, Sanitize: true}, []interp.Engine{flat, sw}},
		{Mode{Sanitize: true, Engines: []interp.Engine{nat, sw}}, []interp.Engine{flat, sw, nat}},
	} {
		got := tc.mode.EngineMatrix()
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%+v: matrix %v, want %v", tc.mode, got, tc.want)
		}
	}
}

// TestSanitizeReportsSwitchViolations: a seeded MOD/REF defect is
// caught by the sanitized switch run and reported as a sanitizer
// divergence, while the plain flat run still agrees with it on
// behaviour and counts.
func TestSanitizeReportsSwitchViolations(t *testing.T) {
	const src = `
int g;
void f(void) { g = 1; }
int main(void) { f(); return g; }
`
	fe, err := driver.ParseSource("pruned.c", src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := fe.Compile(driver.Config{Analysis: driver.ModRef}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Prune g from the MOD set of main's call to f.
	for _, b := range c.Module.Funcs["main"].Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpJsr && in.Callee() == "f" {
				in.SetEffects(ir.TagSet{}, in.Refs())
			}
		}
	}
	e := execute(c, driver.NamedConfig{Name: "pruned"}, Mode{Sanitize: true})
	if e.Err == nil || !strings.Contains(e.Err.Error(), "sanitizer: 1 violation(s)") {
		t.Fatalf("err = %v, want one sanitizer violation", e.Err)
	}
	if e.Oracle != OracleSanitize {
		t.Errorf("oracle = %q, want %q", e.Oracle, OracleSanitize)
	}
	if e.Exit != 1 {
		t.Errorf("exit = %d, want 1", e.Exit)
	}
}
