// Package driver assembles the compilation pipeline the paper
// evaluates (§5): front end → interprocedural analysis (MOD/REF alone,
// or points-to followed by a MOD/REF re-run) → value numbering,
// constant propagation, loop-invariant code motion → register
// promotion → partial redundancy elimination, dead-code elimination,
// basic-block cleaning → graph-coloring register allocation. The four
// experimental configurations are the cross product of
// {MOD/REF, points-to} × {promotion off, promotion on}.
//
// The pipeline is an explicit pass manager: each configuration expands
// to a named pass list (see Config.Passes). The interprocedural passes
// are whole-module barriers; every run of consecutive per-function
// passes between them is a group that the worker pool walks function
// by function. Frontend.CompileMatrix runs several configurations'
// lists as one trie, so a pass prefix they share runs once, and the
// trie's branches run concurrently. Past the point where the branches
// part, a trie's final local passes (pre through regalloc) run once
// per distinct function: a content-addressed memo keyed by the
// passes' trie keys and the whole function hands every later
// identical function a copy of the first one's output (see funcMemo).
// Compilation.ContentKey names a compiled module's content, so
// identical modules can be executed once. A compile under an
// obs.Tracer records spans and fills Compilation.Passes with one
// record per pass: its span time, static IR deltas, and pass
// statistics.
package driver

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/analysis/certify"
	"regpromo/internal/analysis/modref"
	"regpromo/internal/analysis/pointsto"
	"regpromo/internal/callgraph"
	"regpromo/internal/check"
	"regpromo/internal/interp"
	"regpromo/internal/ir"
	"regpromo/internal/native"
	"regpromo/internal/obs"
	"regpromo/internal/opt/clean"
	"regpromo/internal/opt/constprop"
	"regpromo/internal/opt/copyprop"
	"regpromo/internal/opt/dce"
	"regpromo/internal/opt/dse"
	"regpromo/internal/opt/licm"
	"regpromo/internal/opt/pre"
	"regpromo/internal/opt/promote"
	"regpromo/internal/opt/valnum"
	"regpromo/internal/par"
	"regpromo/internal/regalloc"
)

// Analysis selects the interprocedural analysis (§4).
type Analysis int

const (
	// ModRef is interprocedural MOD/REF analysis alone.
	ModRef Analysis = iota
	// PointsTo runs the Ruf-style points-to analysis, refines the
	// memory operations, and repeats MOD/REF with the sharper sets.
	PointsTo
)

func (a Analysis) String() string {
	if a == PointsTo {
		return "pointer"
	}
	return "modref"
}

// CheckLevel selects how much of the internal/check lint registry
// Compile runs over its own output.
type CheckLevel int

const (
	// CheckOff runs no lint passes (the PassVerify structural check
	// still always runs).
	CheckOff CheckLevel = iota
	// CheckModule runs the full lint registry once, after the
	// pipeline finishes.
	CheckModule
	// CheckEveryPass runs the registry after the front end and again
	// after every pass, pinpointing the first pass that breaks an
	// invariant. Each per-function pass then runs as its own one-pass
	// group, so the whole module sits at every pass boundary.
	CheckEveryPass
)

func (l CheckLevel) String() string {
	switch l {
	case CheckModule:
		return "module"
	case CheckEveryPass:
		return "pass"
	}
	return "off"
}

// ParseCheck resolves the -check CLI flag: either a level — "off",
// "module", "pass" — or a comma list of individual lint-pass names
// from the check registry (e.g. "uninit,certify" or "pressure"),
// which runs exactly those passes at the module boundary. Mirrors
// ParseEngines: the list is deduplicated in first-mention order and
// unknown names are rejected with the canonical diagnostic format
// (ir.Diag, check "check") so every CLI entry point prints the same
// line for the same typo.
func ParseCheck(spec string) (CheckLevel, []string, error) {
	switch spec {
	case "off", "":
		return CheckOff, nil, nil
	case "module":
		return CheckModule, nil, nil
	case "pass", "after-every-pass":
		return CheckEveryPass, nil, nil
	}
	var names []string
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if _, ok := check.Named(name); !ok {
			return CheckOff, nil, checkDiag(name)
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return CheckModule, names, nil
}

// checkDiag renders the canonical unknown-check-pass diagnostic.
func checkDiag(name string) error {
	return ir.DiagError([]ir.Diag{{
		Check: "check",
		Index: -1,
		Msg: `unknown check pass "` + name +
			`" (want off, module, pass, or a comma list of: ` + strings.Join(check.Names(), ", ") + `)`,
	}})
}

// CheckError reports lint violations found at a CheckLevel boundary,
// naming the stage after which the module first failed.
type CheckError struct {
	// Pass is the stage whose output is broken: a pass name,
	// PassFrontend, or "module" for the post-pipeline check.
	Pass string
	// Diags are all violations, in lint-registry order.
	Diags []ir.Diag
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("check failed after %s: %s", e.Pass, ir.DiagError(e.Diags))
}

// Config selects one compilation configuration.
type Config struct {
	Analysis Analysis

	// Promote enables scalar register promotion (§3.1).
	Promote bool
	// PointerPromote additionally enables §3.3 pointer-based
	// promotion (requires Promote).
	PointerPromote bool
	// SkipUnwrittenStores is the demotion-store refinement ablation
	// (see promote.Options).
	SkipUnwrittenStores bool

	// Throttle, when positive, bounds promotion per loop with the
	// Carr-style bin-packing discipline (§3.4); pass the machine's
	// register count. Zero reproduces the paper's unthrottled
	// promoter.
	Throttle int

	// DSE enables the tag-based dead-store-elimination extension
	// (§3.4's "stores" direction). Off in the paper's pipeline.
	DSE bool

	// DisableOpt skips the classical optimization passes, leaving
	// only analysis and (optionally) promotion. Used by tests.
	DisableOpt bool

	// NoAlloc skips register allocation (virtual registers remain).
	NoAlloc bool
	// K is the physical register count for allocation (default 32).
	K int

	// Workers bounds how many functions the per-function middle-end
	// passes process concurrently, and how many branches of a
	// CompileMatrix trie run at once: 0 picks one worker per CPU,
	// larger values set the bound directly. The workers come from
	// internal/par's process-wide budget of GOMAXPROCS slots, so a
	// step that finds fewer than two free (a group inside a branch
	// that runs beside its siblings, say) runs inline. 1 runs the
	// whole compile on the calling goroutine, branches and functions
	// in order. The produced IL is identical at any setting.
	Workers int

	// Check selects how much of the internal/check lint registry to
	// run over the pipeline's own output; violations surface as a
	// *CheckError from Compile.
	Check CheckLevel

	// CheckPasses, when non-empty, restricts the lint registry runs to
	// the named passes (names from check.Names, validated by
	// ParseCheck). Empty runs the full core registry.
	CheckPasses []string

	// Certify re-proves every promotion certificate with the
	// independent region-soundness verifier (internal/analysis/certify)
	// at a pipeline barrier right after promotion. Refuted certificates
	// surface as a *CheckError naming PassCertify. No-op without
	// Promote.
	Certify bool

	// AnalysisCache, when non-nil, memoizes interprocedural analysis
	// across compilations: MOD/REF summaries per callgraph SCC and the
	// points-to narrowing per live-pointer projection. Share one store
	// across Frontends compiling successive versions of a module and a
	// one-function edit re-solves only the dirty components. Nil (the
	// default) analyzes from scratch every time.
	AnalysisCache *cache.Store
}

// AnalysisStats summarizes the incremental-analysis work a pipeline
// performed, summed over its analysis passes (MOD/REF runs once or —
// under PointsTo — twice, plus the points-to solve, which counts the
// whole module's components as cached when its projection hit).
type AnalysisStats struct {
	// SCCsSolved counts component fixpoints actually computed;
	// SCCsCached counts components replayed from Config.AnalysisCache.
	SCCsSolved, SCCsCached int
}

// Compilation is a compiled program plus pass statistics.
type Compilation struct {
	Module   *ir.Module
	Promote  promote.Stats
	Alloc    regalloc.Stats
	Analysis AnalysisStats

	// Passes holds one record per pass, front end first, when the
	// compile ran under a tracer; nil for an untraced compile.
	Passes []*obs.PassEvent

	// prog caches the module's flat-code lowering so repeated
	// executions of one compilation — a benchmark matrix, a fuzz seed
	// under several engines — pay for lowering once. The cache is
	// never invalidated: a Compilation's module is not mutated after
	// the pipeline finishes. Not safe for concurrent Execute calls on
	// one Compilation; concurrent callers hold distinct Compilations.
	prog *interp.Program

	// artifact caches the module's built native artifact the same way
	// prog caches the flat lowering.
	artifact *native.Artifact

	// finalKeys holds, in function order, the key each function had
	// going into a matrix's memoized final segment (see funcMemo);
	// nil, or a zero key, where the function did not go through one.
	// Read through ContentKey.
	finalKeys []cache.Key

	// pressureByFunc holds the static register-pressure reports
	// measured right after promotion, keyed by function (only functions
	// with promotions appear). Read through Pressure.
	pressureByFunc map[string][]certify.Pressure
}

// Pressure returns the static register-pressure reports for every
// promotion site in the module, in function order (empty unless the
// configuration promoted something). Each report covers one landing
// pad; see certify.Pressure.
func (c *Compilation) Pressure() []certify.Pressure {
	if len(c.pressureByFunc) == 0 {
		return nil
	}
	var out []certify.Pressure
	for _, name := range c.Module.FuncOrder {
		out = append(out, c.pressureByFunc[name]...)
	}
	return out
}

// pass is one named stage of the pipeline, with exactly one body. run
// is a whole-module barrier (the interprocedural analyses, certify,
// verify). fn is a per-function pass: a maximal run of consecutive fn
// passes forms a group that runGroup executes function by function
// (each function walks the whole group before the next barrier); r is
// the function's private run state. Both return the pass's extra
// statistics for its record (may be nil). finish, when non-nil,
// rebuilds a per-function pass's statistics from pipeState after its
// group, where they are not a plain per-function sum.
//
// reads declares the Config fields the body reads beyond the pass's
// presence in the list and the ambient fields (see ambientKey).
// CompileMatrix shares one run of a pass between configurations whose
// lists agree up to it and whose declared fields are equal, so a body
// that reads an undeclared field would be shared wrongly.
//
// local marks a per-function pass that reads nothing but its function
// and writes nothing but the function and r: its output is fixed by
// its input function and trie key, which is what lets a matrix memoize
// it (see funcMemo).
type pass struct {
	name   string
	reads  readSet
	local  bool
	run    func(s *pipeState) (map[string]int64, error)
	fn     func(s *pipeState, f *ir.Func, r *funcRun) (map[string]int64, error)
	finish func(s *pipeState) map[string]int64
}

// funcRun is one function's private state while it walks a group:
// the spill tags it stages, the promotion and allocation statistics it
// produces (runGroup folds them into the compilation in function
// order, so the promotion regions come out in that order), and the key
// it went into a memoized segment with.
type funcRun struct {
	tags    ir.StagedTags
	promote promote.Stats
	alloc   regalloc.Stats
	key     cache.Key
}

// pipeState is the mutable state threaded through the pass list. The
// mutex guards c's pressure reports during parallel groups (a map
// keyed by function, so the insertion order cannot show); the
// statistics a group produces are kept per function (funcRun) and
// folded in function order after it.
//
// cfg supplies the ambient fields (Workers, Check, CheckPasses), which
// every configuration sharing the state agrees on; pass bodies read
// their own configuration's fields through their closures.
type pipeState struct {
	cfg Config
	c   *Compilation
	cg  *callgraph.Graph
	tr  *obs.Tracer // nil for an untraced compile
	mu  sync.Mutex

	// width is the worker bound of the state's parallel steps:
	// Config.Workers, or GOMAXPROCS when that is 0, fixed when the
	// matrix starts.
	width int
	// lane is the trace thread (tid) of the state's barrier spans, and
	// a group's worker w traces on tid lane+1+w. A matrix's root state
	// has lane 0; a branch that runs beside its siblings gets a fresh
	// block of width+1 tids, so concurrent branches never share a tid
	// (see matrix.descend).
	lane int

	// analysisDone is set once a MOD/REF run has annotated the
	// module, which some lint passes wait for.
	analysisDone bool

	// memo is the trie's final-segment memo, shared by its forks; nil
	// for a one-configuration compile.
	memo *funcMemo
}

// Canonical pass names, in the order the full pipeline runs them.
// PassValnumLate is the post-PRE value-numbering rerun.
const (
	PassModRef     = "modref"
	PassPointsTo   = "pointsto"
	PassRefine     = "refine"
	PassConstProp  = "constprop"
	PassValnum     = "valnum"
	PassLICM       = "licm"
	PassPromote    = "promote"
	PassCertify    = "certify"
	PassDSE        = "dse"
	PassPRE        = "pre"
	PassValnumLate = "valnum.post"
	PassCopyProp   = "copyprop"
	PassDCE        = "dce"
	PassClean      = "clean"
	PassRegalloc   = "regalloc"
	PassVerify     = "verify"
)

// passes expands the configuration into its pass list.
func (cfg Config) passes() []pass {
	var ps []pass
	ps = append(ps, pass{name: PassModRef, run: func(s *pipeState) (map[string]int64, error) {
		s.cg = callgraph.Build(s.c.Module)
		sp := s.tr.Start("modref.fixpoint", "analysis", s.lane)
		res := modref.Analyze(s.c.Module, s.cg, cfg.AnalysisCache)
		s.c.Analysis.SCCsSolved += res.SCCsSolved
		s.c.Analysis.SCCsCached += res.SCCsCached
		sp.Arg("funcs", int64(s.cg.NumFuncs())).
			Arg("sccs_solved", int64(res.SCCsSolved)).
			Arg("sccs_cached", int64(res.SCCsCached)).End()
		return map[string]int64{
			"funcs":       int64(s.cg.NumFuncs()),
			"tags":        int64(s.c.Module.Tags.Len()),
			"sccs_solved": int64(res.SCCsSolved),
			"sccs_cached": int64(res.SCCsCached),
		}, nil
	}})
	if cfg.Analysis == PointsTo {
		ps = append(ps, pass{name: PassPointsTo, run: func(s *pipeState) (map[string]int64, error) {
			m := s.c.Module
			sp := s.tr.Start("pointsto.fixpoint", "analysis", s.lane)
			res := pointsto.Solve(m, s.cg, cfg.AnalysisCache)
			s.c.Analysis.SCCsSolved += res.SCCsSolved
			s.c.Analysis.SCCsCached += res.SCCsCached
			sp.Arg("steps", int64(res.Steps)).
				Arg("sccs_cached", int64(res.SCCsCached)).End()
			return map[string]int64{
				"steps":       int64(res.Steps),
				"tags":        int64(m.Tags.Len()),
				"sccs_solved": int64(res.SCCsSolved),
				"sccs_cached": int64(res.SCCsCached),
			}, nil
		}})
		ps = append(ps, pass{name: PassRefine, run: func(s *pipeState) (map[string]int64, error) {
			m := s.c.Module
			changed := modref.RefineMemOps(m)
			// Indirect-call targets may have been pinned; rebuild
			// the call graph so the repeated MOD/REF run sees the
			// refined edges (§4: "MOD/REF analysis is then
			// repeated").
			s.cg = callgraph.Build(m)
			return map[string]int64{"changed": int64(changed)}, nil
		}})
		ps = append(ps, pass{name: PassModRef, run: func(s *pipeState) (map[string]int64, error) {
			sp := s.tr.Start("modref.fixpoint", "analysis", s.lane)
			res := modref.Analyze(s.c.Module, s.cg, cfg.AnalysisCache)
			s.c.Analysis.SCCsSolved += res.SCCsSolved
			s.c.Analysis.SCCsCached += res.SCCsCached
			sp.Arg("funcs", int64(s.cg.NumFuncs())).
				Arg("sccs_solved", int64(res.SCCsSolved)).
				Arg("sccs_cached", int64(res.SCCsCached)).End()
			return map[string]int64{
				"funcs":       int64(s.cg.NumFuncs()),
				"tags":        int64(s.c.Module.Tags.Len()),
				"sccs_solved": int64(res.SCCsSolved),
				"sccs_cached": int64(res.SCCsCached),
			}, nil
		}})
	}
	// The classical passes report how many rewrites they performed;
	// surface that as the pass's "changed" statistic.
	simple := func(name string, fn func(*ir.Func) int) pass {
		return pass{name: name, local: true, fn: func(_ *pipeState, f *ir.Func, _ *funcRun) (map[string]int64, error) {
			return map[string]int64{"changed": int64(fn(f))}, nil
		}}
	}
	if !cfg.DisableOpt {
		ps = append(ps,
			simple(PassConstProp, constprop.Func),
			simple(PassValnum, valnum.Func),
			simple(PassLICM, licm.Func),
		)
	}
	promoteExtras := func(st promote.Stats) map[string]int64 {
		return map[string]int64{
			"scalar_promotions":  int64(st.ScalarPromotions),
			"pointer_promotions": int64(st.PointerPromotions),
			"refs_rewritten":     int64(st.RefsRewritten),
			"loads_inserted":     int64(st.LoadsInserted),
			"stores_inserted":    int64(st.StoresInserted),
		}
	}
	promoteOpts := promote.Options{
		Pointer:             cfg.PointerPromote,
		SkipUnwrittenStores: cfg.SkipUnwrittenStores,
		PressureLimit:       cfg.Throttle,
	}
	if cfg.Promote {
		// Static register pressure is measured right after each
		// function is promoted: the regions' PromotedReg names are
		// still virtual and the promoted copies have not yet been
		// coalesced away, so the count reflects the promoter's own
		// demand (the quantity the paper's water anecdote is about).
		recordPressure := func(s *pipeState, f *ir.Func, regions []promote.Region) {
			reports := certify.MeasurePressure(f, regions, cfg.K)
			if len(reports) == 0 {
				return
			}
			s.mu.Lock()
			if s.c.pressureByFunc == nil {
				s.c.pressureByFunc = make(map[string][]certify.Pressure)
			}
			s.c.pressureByFunc[f.Name] = reports
			s.mu.Unlock()
		}
		ps = append(ps, pass{
			name:  PassPromote,
			reads: readPointerPromote | readSkipUnwrittenStores | readThrottle | readK,
			fn: func(s *pipeState, f *ir.Func, r *funcRun) (map[string]int64, error) {
				st := promote.Func(s.c.Module, f, promoteOpts)
				r.promote.Add(st)
				recordPressure(s, f, st.Regions)
				return nil, nil
			},
			finish: func(s *pipeState) map[string]int64 { return promoteExtras(s.c.Promote) },
		})
		if cfg.Certify {
			// A barrier: the verifier needs every function's
			// certificates and the whole module's call structure, so
			// the middle end parks here between its groups.
			ps = append(ps, pass{name: PassCertify, run: func(s *pipeState) (map[string]int64, error) {
				sp := s.tr.Start("certify.verify", "analysis", s.lane)
				sum := certify.Verify(s.c.Module, s.c.Promote.Regions)
				sp.Arg("regions", int64(sum.Regions)).
					Arg("violations", int64(sum.Violations)).End()
				extras := map[string]int64{
					"regions":    int64(sum.Regions),
					"proved":     int64(sum.Proved),
					"unproven":   int64(sum.Unproven),
					"violations": int64(sum.Violations),
				}
				if len(sum.Diags) > 0 {
					return extras, &CheckError{Pass: PassCertify, Diags: sum.Diags}
				}
				return extras, nil
			}})
		}
	}
	if cfg.DSE {
		ps = append(ps, pass{
			name: PassDSE,
			fn: func(s *pipeState, f *ir.Func, _ *funcRun) (map[string]int64, error) {
				return map[string]int64{"changed": int64(dse.Func(s.c.Module, f))}, nil
			},
		})
	}
	if !cfg.DisableOpt {
		ps = append(ps,
			simple(PassPRE, pre.Func),
			simple(PassValnumLate, valnum.Func),
			simple(PassCopyProp, copyprop.Func),
			simple(PassDCE, dce.Func),
			simple(PassClean, clean.Func),
		)
	}
	allocExtras := func(st regalloc.Stats) map[string]int64 {
		return map[string]int64{
			"spilled":      int64(st.Spilled),
			"spill_loads":  int64(st.SpillLoads),
			"spill_stores": int64(st.SpillStores),
			"coalesced":    int64(st.Coalesced),
			"rounds":       int64(st.Rounds),
			"max_live":     int64(st.MaxLive),
			"edges":        int64(st.Edges),
			"probes":       int64(st.Probes),
		}
	}
	if !cfg.NoAlloc {
		ps = append(ps, pass{
			name:  PassRegalloc,
			reads: readK,
			local: true,
			fn: func(_ *pipeState, f *ir.Func, r *funcRun) (map[string]int64, error) {
				st, err := regalloc.Func(f, regalloc.Options{K: cfg.K}, &r.tags)
				if err != nil {
					return nil, err
				}
				r.alloc.Add(st)
				return nil, nil
			},
			finish: func(s *pipeState) map[string]int64 { return allocExtras(s.c.Alloc) },
		})
	}
	ps = append(ps, pass{name: PassVerify, run: func(s *pipeState) (map[string]int64, error) {
		if err := ir.VerifyModule(s.c.Module); err != nil {
			return nil, fmt.Errorf("pipeline produced invalid IL: %w", err)
		}
		return nil, nil
	}})
	return ps
}

// Passes returns the configuration's pass names in execution order
// (the front end, which runs before the module exists, is recorded as
// "frontend" or "frontend.reuse" ahead of these).
func (cfg Config) Passes() []string {
	ps := cfg.passes()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.name
	}
	return names
}

// PassFrontend is the record name of the parse+sema+irgen stage.
const PassFrontend = "frontend"

// CompileSource runs the full pipeline over one C source file.
func CompileSource(filename, src string, cfg Config) (*Compilation, error) {
	return Compile(filename, src, cfg, nil)
}

// Compile runs the full pipeline under a tracer. tr may be nil, in
// which case nothing is recorded (identical to CompileSource).
// Otherwise every pass — including the front end, recorded as
// "frontend" — gets a span and a record in Compilation.Passes.
//
// To compile one source under several configurations, run the front
// end once with ParseSource and compile the configurations together
// with Frontend.CompileMatrix instead.
func Compile(filename, src string, cfg Config, tr *obs.Tracer) (*Compilation, error) {
	// Single-use compile: the pipeline owns the front end's module
	// outright, so no clone is forked.
	cs, errs := compileMatrix([]Config{cfg}, tr, allReads, nil, PassFrontend, func(s *pipeState) error {
		sp := tr.Start(PassFrontend, "pass", 0)
		m, err := frontEnd(filename, src)
		dur := sp.End()
		if err != nil {
			return err
		}
		s.c.Module = m
		s.recordModule(PassFrontend, dur, nil)
		return nil
	})
	return cs[0], errs[0]
}

// checkDump rejects an IL-dump request naming a stage the compile
// will not run, before any work is done. first is the compile's
// front-end stage.
func checkDump(tr *obs.Tracer, first string, cfg Config) error {
	if tr == nil || tr.DumpPass == "" || tr.DumpPass == obs.DumpAll {
		return nil
	}
	stages := append([]string{first}, cfg.Passes()...)
	for _, name := range stages {
		if name == tr.DumpPass {
			return nil
		}
	}
	return fmt.Errorf("cannot dump IL after %q: no such pass (passes: %s)", tr.DumpPass, strings.Join(stages, " "))
}

// runBarrier runs one whole-module pass under its span.
func (s *pipeState) runBarrier(p pass) error {
	sp := s.tr.Start(p.name, "pass", s.lane)
	extra, err := p.run(s)
	dur := sp.AddArgs(extra).End()
	if err != nil {
		return err
	}
	s.recordModule(p.name, dur, extra)
	return nil
}

// recordModule records a whole-module stage of a traced compile,
// measuring the module once; untraced it does nothing.
func (s *pipeState) recordModule(name string, durNS int64, extra map[string]int64) {
	if s.tr != nil {
		s.record(name, durNS, extra, obs.Measure(s.c.Module))
	}
}

// record appends one pass record to a traced compile. durNS is the
// pass's span time and after its census, taken once the pass finished;
// the record's Before is the previous record's After.
func (s *pipeState) record(name string, durNS int64, extra map[string]int64, after obs.Snapshot) {
	c := s.c
	ev := &obs.PassEvent{Index: len(c.Passes), Name: name, DurationNS: durNS, After: after, Extra: extra}
	if n := len(c.Passes); n > 0 {
		ev.Before = c.Passes[n-1].After
	}
	if d := s.tr.DumpPass; d == obs.DumpAll || d == name {
		ev.IRDump = ir.FormatModule(c.Module)
	}
	c.Passes = append(c.Passes, ev)
}

// runChecks runs the internal/check lint registry over the module's
// current state, reporting violations as a *CheckError that names the
// stage whose output is broken.
func (s *pipeState) runChecks(stage string, analysisDone bool) error {
	ctx := &check.Context{
		Module:       s.c.Module,
		AnalysisDone: analysisDone,
		Regions:      s.c.Promote.Regions,
		Pressure:     s.c.Pressure(),
	}
	var ds []ir.Diag
	if len(s.cfg.CheckPasses) > 0 {
		ds = check.Selected(ctx, s.cfg.CheckPasses)
	} else {
		ds = check.Module(ctx)
	}
	if len(ds) > 0 {
		return &CheckError{Pass: stage, Diags: ds}
	}
	return nil
}

// funcStage is one (function, pass) record from a traced group.
type funcStage struct {
	after obs.Snapshot
	durNS int64
	extra map[string]int64
}

// runGroup executes a maximal run of per-function passes across the
// module's functions on the worker pool. Each function walks the
// whole group — function A can be in regalloc while function B is
// still in constprop — so the group's wall time is bounded by the
// slowest function, not by the slowest pass. A one-worker pool, or a
// group that finds no free slot in par's CPU budget (a group inside a
// matrix branch that runs beside its siblings, say), walks the
// functions in order on the calling goroutine. When seg is non-nil,
// each function runs the group's tail from seg.from through the
// trie's memo (see funcWalk.memoized).
//
// Determinism: the passes in a group only read shared state (the tag
// table, call-graph summaries baked into instructions) and mutate
// their own function, so the produced IL does not depend on the worker
// count. The two exceptions are handled explicitly. Spill-slot tags
// would be allocated from the shared table in racy order; instead
// each function stages its tags privately (ir.StagedTags) and the
// stagings are committed in function order afterwards, so the
// numbering is that of a pass-major walk. Pass records would
// interleave; instead, under a tracer, each worker times every stage
// of its function with a span and measures the function after it, and
// the per-function records are merged in function order — Measure
// decomposes over functions, so the merged census equals the
// whole-module snapshot. Untraced, no clock is read and nothing is
// measured or kept per function.
func runGroup(s *pipeState, group []*node, seg *segment) error {
	m := s.c.Module
	fns := m.FuncsInOrder()
	runs := make([]funcRun, len(fns))
	tr := s.tr
	var recs [][]funcStage
	if tr != nil {
		recs = make([][]funcStage, len(fns))
	}
	if _, err := par.ParallelMapWorker(len(fns), s.width, func(worker, i int) (struct{}, error) {
		w := &funcWalk{s: s, group: group, fn: fns[i], run: &runs[i]}
		if tr != nil {
			// Middle-end work items are attributed to the tids after
			// the state's lane; tid t >= 1 is logical worker t-1 (tid 0
			// is the coordinating goroutine).
			w.tid = s.lane + 1 + worker
			tr.NameThread(w.tid, fmt.Sprintf("worker %d", w.tid-1))
			fsp := tr.Start(w.fn.Name, "middleend", w.tid).Arg("worker", int64(worker))
			w.recs = make([]funcStage, len(group))
			recs[i] = w.recs
			defer fsp.End()
		}
		end := len(group)
		if seg != nil {
			end = seg.from
		}
		err := w.steps(0, end)
		if err == nil && seg != nil {
			err = w.memoized(seg)
		}
		return struct{}{}, err
	}); err != nil {
		return err
	}

	// Fold the functions' statistics and commit their staged spill tags
	// in function order: the replay hands out exactly the ids a
	// pass-major walk would have, then the function's provisional
	// references are rewritten to them.
	for i, fn := range fns {
		r := &runs[i]
		s.c.Promote.Add(r.promote)
		s.c.Alloc.Add(r.alloc)
		if seg != nil {
			if s.c.finalKeys == nil {
				s.c.finalKeys = make([]cache.Key, len(fns))
			}
			s.c.finalKeys[i] = r.key
		}
		if !r.tags.Empty() {
			commitStagedTags(fn, &r.tags, &m.Tags)
		}
	}

	if tr == nil {
		return nil
	}
	for j := range group {
		var after obs.Snapshot
		var durNS int64
		var extra map[string]int64
		for i := range fns {
			r := &recs[i][j]
			after = after.Add(r.after)
			durNS += r.durNS
			for k, v := range r.extra {
				if extra == nil {
					extra = make(map[string]int64)
				}
				extra[k] += v
			}
		}
		p := &group[j].pass
		if p.finish != nil {
			extra = p.finish(s)
		}
		s.record(p.name, durNS, extra, after)
	}
	return nil
}

// funcWalk is one function's walk through a group. recs is nil
// untraced; traced, it collects the function's record of every pass.
type funcWalk struct {
	s     *pipeState
	group []*node
	fn    *ir.Func
	run   *funcRun
	tid   int
	recs  []funcStage
}

// steps runs the group's passes from index from up to to over the
// function, each under its span when traced.
func (w *funcWalk) steps(from, to int) error {
	for j := from; j < to; j++ {
		p := &w.group[j].pass
		if w.recs == nil {
			if _, err := p.fn(w.s, w.fn, w.run); err != nil {
				return err
			}
			continue
		}
		psp := w.s.tr.Start(p.name, "pass", w.tid).Label("func", w.fn.Name)
		extra, err := p.fn(w.s, w.fn, w.run)
		w.recs[j].durNS = psp.AddArgs(extra).End()
		if err != nil {
			return err
		}
		w.recs[j].after = obs.MeasureFunc(w.fn)
		w.recs[j].extra = extra
	}
	return nil
}

// memoized runs the segment's passes over the function through the
// trie's memo. The key is the segment's trie keys plus the whole
// function (hashFunc). The first function with a key runs the passes
// and stores the result; a later one takes it over (one memo.hit span
// when traced, the stored censuses and extras standing in for the
// passes' records). The function's stage and allocation statistics
// are still empty here: regalloc, the one pass that fills them, is
// local, so it is always inside the segment.
func (w *funcWalk) memoized(seg *segment) error {
	end := len(w.group)
	r := w.run
	h := seg.seed
	hashFunc(&h, w.fn)
	r.key = h.Sum()
	e, own := w.s.memo.lookup(r.key)
	if !own {
		if !e.ok {
			return w.steps(seg.from, end)
		}
		sp := w.s.tr.Start("memo.hit", "memo", w.tid).Label("func", w.fn.Name)
		e.apply(w.fn, r)
		if w.recs != nil {
			copy(w.recs[seg.from:], e.stages)
		}
		sp.End()
		return nil
	}
	defer e.ready.Done()
	in := slices.Clone(w.fn.Blocks)
	if err := w.steps(seg.from, end); err != nil {
		return err
	}
	var stages []funcStage
	if w.recs != nil {
		stages = w.recs[seg.from:]
	}
	e.store(w.fn, in, r, stages)
	return nil
}

// commitStagedTags replays fn's staged tag creations into the shared
// table and rewrites the function's provisional tag ids (spill-slot
// references and frame-local entries) to the real ones.
func commitStagedTags(fn *ir.Func, staged *ir.StagedTags, tags *ir.TagTable) {
	remap := staged.Commit(tags)
	for i, t := range fn.Locals {
		if id, ok := remap[t]; ok {
			fn.Locals[i] = id
		}
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if id, ok := remap[b.Instrs[i].Tag]; ok {
				b.Instrs[i].Tag = id
			}
		}
	}
}

// Execute runs a compiled program under the engine named in opts.
// Flat-engine runs lower the module to flat code on first use and
// reuse the lowering, with its load image, afterwards. A switch-engine
// run (asked for, or a hooked flat-engine one — interp.Options.Hooked:
// profile or sanitizer) loads from that image once it exists;
// before any flat run it builds an image of its own, which costs less
// than lowering. Native runs additionally build (or reuse, via the
// content-addressed cache) a machine-code artifact.
func (c *Compilation) Execute(opts interp.Options) (*interp.Result, error) {
	switch {
	case opts.Engine == interp.EngineNative:
		a, err := c.nativeArtifact()
		if err != nil {
			return nil, err
		}
		return a.Run(opts)
	case c.prog == nil && (opts.Engine == interp.EngineSwitch || opts.Hooked()):
		return interp.Run(c.Module, opts)
	}
	return c.flatProgram().Run(opts)
}

// PrepareEngine performs the engine's one-time setup — flat-code
// lowering, native artifact build — without running the program, so
// callers that time executions (the benchmark harness) can keep build
// cost out of the measurement window. Preparing the switch engine,
// or a hooked flat-engine execution that runs there, is a no-op.
func (c *Compilation) PrepareEngine(opts interp.Options) error {
	switch opts.Engine {
	case interp.EngineSwitch:
		return nil
	case interp.EngineNative:
		_, err := c.nativeArtifact()
		return err
	}
	if !opts.Hooked() {
		c.flatProgram()
	}
	return nil
}

// flatProgram returns the cached flat lowering, lowering on first
// use.
func (c *Compilation) flatProgram() *interp.Program {
	if c.prog == nil {
		c.prog = interp.Flatten(c.Module, false)
	}
	return c.prog
}

// nativeArtifact returns the cached native build, building on first
// use from the flat lowering.
func (c *Compilation) nativeArtifact() (*native.Artifact, error) {
	if c.artifact == nil {
		a, err := native.Build(c.flatProgram(), true, native.Options{})
		if err != nil {
			return nil, err
		}
		c.artifact = a
	}
	return c.artifact, nil
}

// Configurations returns the paper's four measurement configurations
// in presentation order: without/with promotion under MOD/REF, then
// without/with promotion under points-to.
func Configurations() []Config {
	return []Config{
		{Analysis: ModRef, Promote: false},
		{Analysis: ModRef, Promote: true},
		{Analysis: PointsTo, Promote: false},
		{Analysis: PointsTo, Promote: true},
	}
}

// NamedConfig pairs a configuration with a stable display name, for
// matrices (differential testing, reports) that must label their
// columns.
type NamedConfig struct {
	Name   string
	Config Config
}

// DifferentialConfigurations enumerates the pipeline configurations
// the differential tester (internal/difftest) compares. The first
// entry is the reference: classical optimizations disabled and
// virtual registers kept, i.e. the straightest lowering of the source
// semantics. Every other configuration must produce the same
// observable behaviour; any disagreement is a miscompilation by
// construction. short trims the matrix to the reference plus the
// paper's three measured pipelines, for quick CI smoke runs.
func DifferentialConfigurations(short bool) []NamedConfig {
	ncs := []NamedConfig{
		{"ref-noopt", Config{Analysis: ModRef, DisableOpt: true, NoAlloc: true}},
		{"baseline", Config{Analysis: ModRef}},
		{"promote-modref", Config{Analysis: ModRef, Promote: true}},
		{"promote-pointer", Config{Analysis: PointsTo, Promote: true, PointerPromote: true}},
	}
	if short {
		return ncs
	}
	return append(ncs,
		// §3.3 promotion with the demotion-store ablation.
		NamedConfig{"promote-skipunwritten", Config{Analysis: PointsTo, Promote: true, PointerPromote: true, SkipUnwrittenStores: true}},
		// Promotion plus the tag-based dead-store-elimination
		// extension (off in the paper's pipeline, so it only ever
		// runs against the others here).
		NamedConfig{"promote-dse", Config{Analysis: PointsTo, Promote: true, PointerPromote: true, DSE: true}},
		// Throttled promotion under a scarce register supply forces
		// the allocator's spill paths into the comparison.
		NamedConfig{"promote-throttle-k8", Config{Analysis: ModRef, Promote: true, Throttle: 8, K: 8}},
	)
}
