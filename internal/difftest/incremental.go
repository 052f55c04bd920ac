package difftest

// This file is the incremental-compilation oracle: the differential
// gate for the analysis summary cache. Where the cross-configuration
// diff compares configurations against each other on one program, the
// incremental oracle compares one configuration against itself across
// an edit — compile program A cold into a fresh cache.Store, compile
// program B warm against that populated store, and demand the warm
// compile's final IL be byte-identical to compiling B with no cache
// at all. Any byte of difference means a stale summary was replayed,
// which is a miscompilation in waiting; the seed is archived as a
// reproducer.
//
// Each seed derives its edit from the generator itself: program B is
// the seed's full program and program A is the same program with one
// generated unit removed (testgen.ProgramKeep), so the pair differs
// by a single function-local edit with the rest of the module shared.
// Both directions run — growing A→B exercises summaries computed
// before the code existed, shrinking B→A exercises summaries that
// must not resurrect deleted effects.
//
// Fuzz runs the oracle on every seed when Mode.Incremental is set
// (DiffSeedMode attaches its verdict to the seed's Result).

import (
	"fmt"
	"strings"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/driver"
	"regpromo/internal/ir"
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
	grow := incrementalOne(seed, matrix, r.Mutated, r.Base)
	shrink := incrementalOne(seed, matrix, r.Base, r.Mutated)
	var sb strings.Builder
	for i, nc := range matrix {
		for _, d := range []struct {
			name string
			v    incrementalVerdict
		}{{"grow", grow[i]}, {"shrink", shrink[i]}} {
			if d.v.div == "" {
				continue
			}
			fmt.Fprintf(&sb, "%s/%s: %s\n", nc.Name, d.name, d.v.div)
			if r.WarmIL == "" {
				r.WarmIL, r.ScratchIL = d.v.warmIL, d.v.scratchIL
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

// incrementalVerdict is one configuration's outcome in one edit
// direction: div is "" when the warm IL matched scratch, and the IL
// pair is set only when it diverged.
type incrementalVerdict struct {
	div, warmIL, scratchIL string
}

// incrementalOne runs one edit direction under every configuration:
// per configuration, a cold compile populating a fresh store and a
// warm compile of the edited source against it; then one scratch
// compile of the edited source with no cache, all configurations as
// one matrix.
func incrementalOne(seed int64, matrix []driver.NamedConfig, cold, warm string) []incrementalVerdict {
	name := fmt.Sprintf("seed%d.c", seed)
	out := make([]incrementalVerdict, len(matrix))
	scratch, errs := compileMatrix(name, warm, matrix, false)
	for i, nc := range matrix {
		cfg := nc.Config
		cfg.AnalysisCache = cache.NewStore()
		if _, err := driver.CompileSource(name, cold, cfg); err != nil {
			out[i].div = fmt.Sprintf("cold compile: %v", err)
			continue
		}
		warmC, err := driver.CompileSource(name, warm, cfg)
		if err != nil {
			out[i].div = fmt.Sprintf("warm compile: %v", err)
			continue
		}
		if errs[i] != nil {
			out[i].div = fmt.Sprintf("scratch compile: %v", errs[i])
			continue
		}
		w, s := ir.FormatModule(warmC.Module), ir.FormatModule(scratch[i].Module)
		if w != s {
			out[i] = incrementalVerdict{fmt.Sprintf("warm IL differs from scratch (%d vs %d bytes; %d SCCs replayed from cache)",
				len(w), len(s), warmC.Analysis.SCCsCached), w, s}
		}
	}
	return out
}
