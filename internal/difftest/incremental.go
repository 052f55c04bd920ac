package difftest

// This file is the incremental-compilation oracle: the differential
// gate for the analysis summary cache. Where difftest.Fuzz compares
// configurations against each other on one program, the incremental
// oracle compares one configuration against itself across an edit —
// compile program A cold into a fresh cache.Store, compile program B
// warm against that populated store, and demand the warm compile's
// final IL be byte-identical to compiling B with no cache at all. Any
// byte of difference means a stale summary was replayed, which is a
// miscompilation in waiting; the seed is archived as a reproducer.
//
// Each seed derives its edit from the generator itself: program B is
// the seed's full program and program A is the same program with one
// generated unit removed (testgen.ProgramKeep), so the pair differs
// by a single function-local edit with the rest of the module shared.
// Both directions run — growing A→B exercises summaries computed
// before the code existed, shrinking B→A exercises summaries that
// must not resurrect deleted effects.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/driver"
	"regpromo/internal/ir"
	"regpromo/internal/par"
	"regpromo/internal/testgen"
)

// IncrementalResult is the oracle's verdict on one seed.
type IncrementalResult struct {
	Seed int64
	// Base is the seed's full program; Mutated is the same program
	// with one generated unit removed.
	Base, Mutated string
	// Divergence lists every configuration/direction whose warm
	// compile differed from scratch ("" when all were identical).
	Divergence string
	// WarmIL and ScratchIL hold the first diverging IL pair, for the
	// failure artifact.
	WarmIL, ScratchIL string
}

// Diverged reports whether any warm compile differed from scratch.
func (r *IncrementalResult) Diverged() bool { return r.Divergence != "" }

// IncrementalSeed runs the incremental oracle on one seed: for every
// configuration in the matrix, compile the seed's base program cold
// into a fresh summary store, recompile the one-unit-edited variant
// warm against it, and compare the warm IL byte-for-byte against an
// uncached compile of the same source. Both edit directions run.
func IncrementalSeed(seed int64, matrix []driver.NamedConfig) *IncrementalResult {
	r := &IncrementalResult{Seed: seed, Base: testgen.Program(seed)}
	r.Mutated = mutateSeed(seed)
	var sb strings.Builder
	for _, nc := range matrix {
		for _, d := range []struct{ name, cold, warm string }{
			{"grow", r.Mutated, r.Base},
			{"shrink", r.Base, r.Mutated},
		} {
			div, warmIL, scratchIL := incrementalOne(seed, nc, d.cold, d.warm)
			if div == "" {
				continue
			}
			fmt.Fprintf(&sb, "%s/%s: %s\n", nc.Name, d.name, div)
			if r.WarmIL == "" {
				r.WarmIL, r.ScratchIL = warmIL, scratchIL
			}
		}
	}
	r.Divergence = sb.String()
	return r
}

// mutateSeed derives the seed's one-edit variant: the full program
// with one generated unit removed. Not every unit is removable —
// dropping a helper definition whose call sites survive leaves an
// unparseable program — so candidates are scanned from a
// seed-dependent start until one still parses. Seeds where no single
// unit can go (none observed in practice) fall back to the unedited
// program, degrading that seed to a same-source replay check.
func mutateSeed(seed int64) string {
	units := testgen.Units(seed)
	for off := 0; off < units; off++ {
		drop := (int(seed%int64(units)) + off) % units
		src := testgen.ProgramKeep(seed, func(i int) bool { return i != drop })
		if _, err := driver.ParseSource(fmt.Sprintf("seed%d.c", seed), src); err == nil {
			return src
		}
	}
	return testgen.Program(seed)
}

// incrementalOne runs one configuration in one direction: cold compile
// populating a fresh store, warm compile of the edited source against
// it, scratch compile of the same edited source with no cache. The IL
// pair is returned only when it diverges.
func incrementalOne(seed int64, nc driver.NamedConfig, cold, warm string) (string, string, string) {
	name := fmt.Sprintf("seed%d.c", seed)
	cfg := nc.Config
	cfg.AnalysisCache = cache.NewStore()
	if _, err := driver.CompileSource(name, cold, cfg); err != nil {
		return fmt.Sprintf("cold compile: %v", err), "", ""
	}
	warmC, err := driver.CompileSource(name, warm, cfg)
	if err != nil {
		return fmt.Sprintf("warm compile: %v", err), "", ""
	}
	scratchC, err := driver.CompileSource(name, warm, nc.Config)
	if err != nil {
		return fmt.Sprintf("scratch compile: %v", err), "", ""
	}
	w, s := ir.FormatModule(warmC.Module), ir.FormatModule(scratchC.Module)
	if w != s {
		return fmt.Sprintf("warm IL differs from scratch (%d vs %d bytes; %d SCCs replayed from cache)",
			len(w), len(s), warmC.Analysis.SCCsCached), w, s
	}
	return "", "", ""
}

// IncrementalOptions configure an incremental-oracle fuzzing run.
type IncrementalOptions struct {
	// Start is the first seed; Seeds is how many consecutive seeds to
	// test.
	Start, Seeds int64
	// Parallel bounds concurrent seeds (<=0 means one worker per CPU).
	Parallel int
	// Short trims the configuration matrix for smoke runs.
	Short bool
	// CorpusDir, when non-empty, receives a failure artifact per
	// divergent seed.
	CorpusDir string
	// Progress, when non-nil, is called after each seed completes
	// (from worker goroutines, possibly out of order).
	Progress func(seed int64, diverged bool)
}

// IncrementalFailure is one divergent seed with its artifact location.
type IncrementalFailure struct {
	Seed       int64
	Divergence string
	// Dir is the corpus directory the artifact was written to (empty
	// when no corpus was requested).
	Dir string
}

// IncrementalReport summarizes an incremental-oracle run.
type IncrementalReport struct {
	Seeds    int64
	Matrix   []driver.NamedConfig
	Failures []IncrementalFailure
}

// FuzzIncremental runs the incremental oracle over Seeds consecutive
// seeds on the shared bench worker pool and reports every divergence,
// archived according to the options. As with Fuzz, the error return
// is for infrastructure problems; divergences are data.
func FuzzIncremental(opts IncrementalOptions) (*IncrementalReport, error) {
	matrix := driver.DifferentialConfigurations(opts.Short)
	report := &IncrementalReport{Seeds: opts.Seeds, Matrix: matrix}
	fails, err := par.ParallelMap(int(opts.Seeds), opts.Parallel, func(i int) (*IncrementalFailure, error) {
		seed := opts.Start + int64(i)
		r := IncrementalSeed(seed, matrix)
		if opts.Progress != nil {
			opts.Progress(seed, r.Diverged())
		}
		if !r.Diverged() {
			return nil, nil
		}
		f := &IncrementalFailure{Seed: seed, Divergence: r.Divergence}
		if opts.CorpusDir != "" {
			dir, err := writeIncrementalArtifacts(opts.CorpusDir, r)
			if err != nil {
				return nil, err
			}
			f.Dir = dir
		}
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range fails {
		if f != nil {
			report.Failures = append(report.Failures, *f)
		}
	}
	return report, nil
}

// writeIncrementalArtifacts archives a divergent seed under
// dir/incr-seed<NNN>: both program variants, the first diverging
// warm/scratch IL pair, and a repro command.
func writeIncrementalArtifacts(dir string, r *IncrementalResult) (string, error) {
	sub := filepath.Join(dir, fmt.Sprintf("incr-seed%d", r.Seed))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return "", err
	}
	var repro strings.Builder
	fmt.Fprintf(&repro, "Incremental-compilation divergence on seed %d.\n\n%s\n", r.Seed, r.Divergence)
	fmt.Fprintf(&repro, "Reproduce with:\n\n    go run ./cmd/rpfuzz -incremental -start %d -seeds 1\n", r.Seed)
	for name, content := range map[string]string{
		"base.c":         r.Base,
		"mutated.c":      r.Mutated,
		"il-warm.txt":    r.WarmIL,
		"il-scratch.txt": r.ScratchIL,
		"repro.txt":      repro.String(),
	} {
		if err := os.WriteFile(filepath.Join(sub, name), []byte(content), 0o644); err != nil {
			return "", err
		}
	}
	return sub, nil
}
