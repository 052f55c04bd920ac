package bench

import (
	"fmt"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
	"regpromo/internal/testgen"
)

// This file is the scale tier: where the paper-suite tiers measure
// the quality of the generated code on small programs, the scale tier
// measures the compiler itself on a ~1000-function module — cold
// interprocedural analysis, then warm re-analysis of the same module
// with one function edited, sharing one analysis cache. Its headline
// quantities are the solved-vs-cached SCC counts; its soundness gate
// is that the warm compile's IL is byte-identical to an uncached
// compile of the same edited source. perfbench's scale workload times
// the same cold and warm compiles.

// ScaleOptions selects the scale-tier run.
type ScaleOptions struct {
	// Seed drives module generation (default 1).
	Seed int64
	// Funcs is the helper-function count (default 1000; CI smoke runs
	// use a smaller value).
	Funcs int
	// Edit is the helper index edited between the cold and warm
	// compiles; out-of-range (including the default 0 via Normalize
	// semantics: negative) picks the middle helper.
	Edit int
	// Execute additionally runs both compiled modules and checks the
	// edited module's checksum agrees between the warm and scratch
	// compiles.
	Execute bool
}

// ScalePhase is one compile's incremental-analysis work.
type ScalePhase struct {
	// SCCsSolved and SCCsCached count component fixpoints computed
	// versus replayed from the cache, summed over the pipeline's
	// analysis passes.
	SCCsSolved int `json:"sccs_solved"`
	SCCsCached int `json:"sccs_cached"`
}

// ScaleReport is the scale tier's cell in the bench report.
type ScaleReport struct {
	Seed      int64 `json:"seed"`
	Functions int   `json:"functions"`
	Lines     int   `json:"lines"`
	// SCCs is the callgraph component count at first analysis.
	SCCs int `json:"sccs"`
	// EditedFunc names the helper edited between cold and warm.
	EditedFunc string     `json:"edited_func"`
	Cold       ScalePhase `json:"cold"`
	Warm       ScalePhase `json:"warm"`
	// Identical certifies the incremental result: the warm compile's
	// final IL is byte-identical to compiling the edited source with
	// no cache.
	Identical bool `json:"identical"`
}

// RunScale generates the scale module, compiles it cold with a fresh
// analysis cache, recompiles the one-function-edited variant warm
// against the same cache, and compiles the edited variant once more
// with no cache as the bit-identity reference.
func RunScale(o ScaleOptions) (*ScaleReport, error) {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Funcs <= 0 {
		o.Funcs = 1000
	}
	if o.Edit < 0 || o.Edit >= o.Funcs {
		o.Edit = o.Funcs / 2
	}
	base := testgen.Scale(testgen.ScaleOptions{Seed: o.Seed, Funcs: o.Funcs, Edit: -1})
	edited := testgen.Scale(testgen.ScaleOptions{Seed: o.Seed, Funcs: o.Funcs, Edit: o.Edit})

	store := cache.NewStore()
	cfg := driver.Config{Analysis: driver.PointsTo, Promote: true, AnalysisCache: store}

	// The cold compile is traced: the component count is its first
	// MOD/REF pass's record, which only a traced compile keeps.
	coldC, err := driver.Compile("scale-cold.c", base, cfg, obs.NewTracer())
	if err != nil {
		return nil, fmt.Errorf("cold compile: %w", err)
	}
	warmC, err := driver.CompileSource("scale-warm.c", edited, cfg)
	if err != nil {
		return nil, fmt.Errorf("warm compile: %w", err)
	}
	scratchCfg := cfg
	scratchCfg.AnalysisCache = nil
	scratchC, err := driver.CompileSource("scale-scratch.c", edited, scratchCfg)
	if err != nil {
		return nil, fmt.Errorf("scratch compile: %w", err)
	}
	sccs := 0
	for _, e := range coldC.Passes {
		if e.Name == driver.PassModRef {
			sccs = int(e.Extra["sccs_solved"] + e.Extra["sccs_cached"])
			break
		}
	}

	r := &ScaleReport{
		Seed:       o.Seed,
		Functions:  o.Funcs,
		Lines:      countLines(base),
		SCCs:       sccs,
		EditedFunc: testgen.ScaleFuncName(o.Edit),
		Cold:       ScalePhase(coldC.Analysis),
		Warm:       ScalePhase(warmC.Analysis),
		Identical:  ir.FormatModule(warmC.Module) == ir.FormatModule(scratchC.Module),
	}
	if o.Execute {
		if err := scaleExecute(coldC, warmC, scratchC); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// scaleExecute runs the three compilations and checks the two edited
// compiles agree (the cold compile ran different source, so only its
// successful termination is checked).
func scaleExecute(cold, warm, scratch *driver.Compilation) error {
	outs := make([]string, 3)
	for i, c := range []*driver.Compilation{cold, warm, scratch} {
		res, err := c.Execute(interp.Options{MaxSteps: 1 << 33})
		if err != nil {
			return fmt.Errorf("scale execute: %w", err)
		}
		outs[i] = res.Output
	}
	if outs[1] != outs[2] {
		return fmt.Errorf("scale tier: warm and scratch compiles of the edited module disagree: %q vs %q", outs[1], outs[2])
	}
	return nil
}

func countLines(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			n++
		}
	}
	return n
}
