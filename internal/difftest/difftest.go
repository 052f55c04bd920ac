// Package difftest is the compiler's differential-testing subsystem:
// a standing correctness gate behind every measurement the paper's
// figures make. For each seed it generates a deterministic, UB-free C
// program (internal/testgen), compiles it under every pipeline
// configuration the evaluation compares (driver.
// DifferentialConfigurations: the no-opt reference, the baseline
// optimizer, scalar and pointer promotion under both analyses, the
// §3.3/§3.4 variants), executes each compilation in the instrumented
// interpreter, and compares observable behaviour — printed output and
// exit code. The generator rules out undefined behaviour by
// construction, so any divergence is a compiler bug, full stop.
//
// When a seed diverges, the package shrinks it with a delta-debugging
// reducer (Reduce) that removes generated statements and helper
// functions while the divergence still reproduces, then writes a
// self-contained failure artifact — original and reduced C source,
// the final IL of every configuration, and a repro command — under a
// corpus directory (WriteArtifacts). Mode selects the oracles beyond
// the cross-configuration diff — engine parity, the sanitizer,
// certify, and the incremental-compilation oracle — and Fuzz, the one
// seed loop, runs them across a seed range on the shared bench worker
// pool; cmd/rpfuzz is its CLI.
package difftest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/ir"
	"regpromo/internal/par"
	"regpromo/internal/testgen"
)

// MaxSteps bounds each interpreted execution. Generated programs are
// small and their loops statically bounded, so any run this long is a
// termination bug; the bound is shared by every configuration so a
// uniform timeout cannot masquerade as a divergence.
const MaxSteps = 1 << 28

// Execution is one configuration's observable outcome on a program.
type Execution struct {
	Config driver.NamedConfig
	// Output and Exit are the program's observable behaviour; Err is
	// set instead when compilation or execution failed.
	Output string
	Exit   int64
	Err    error
	// Oracle names the optional oracle that produced Err
	// (OracleSanitize or OracleCertify), or is "" when Err is not an
	// optional oracle's verdict.
	Oracle string
	// Counts are the dynamic execution counters. They differ across
	// configurations by design (that difference is the paper's
	// result), so the cross-configuration comparison ignores them —
	// but across engines on the same compilation they must be
	// byte-identical, and the both-engines mode enforces that.
	Counts interp.Counts
}

// Behaviour renders the outcome as a comparable string: diverging
// behaviours compare unequal, identical ones equal.
func (e *Execution) Behaviour() string {
	if e.Err != nil {
		return "error: " + e.Err.Error()
	}
	return fmt.Sprintf("exit=%d output=%q", e.Exit, e.Output)
}

// Result is the differential verdict on one program.
type Result struct {
	Seed   int64
	Source string
	// Mode is the oracle mode the program was diffed under.
	Mode  Mode
	Execs []Execution
	// Executed counts the compilations that actually ran: the
	// configurations whose modules are identical (equal
	// driver.Compilation.ContentKey) run once between them, and the
	// ones that failed to compile not at all.
	Executed int
	// Incremental is the incremental oracle's verdict on the seed
	// (nil unless Mode.Incremental was set on a seed).
	Incremental *IncrementalResult
}

// Divergence describes how the configurations disagree, followed by
// any incremental-oracle divergence, or returns "" when all agree.
// The first configuration (the no-opt reference) is the anchor every
// other configuration is compared against.
func (r *Result) Divergence() string {
	div := r.configDivergence()
	if r.Incremental != nil && r.Incremental.Diverged() {
		for _, line := range strings.SplitAfter(r.Incremental.Divergence, "\n") {
			if line != "" {
				div += "incremental " + line
			}
		}
	}
	return div
}

// configDivergence is the cross-configuration part of Divergence: the
// part the reducer can chase, since DiffSourceMode reproduces it.
func (r *Result) configDivergence() string {
	if len(r.Execs) == 0 {
		return ""
	}
	ref := r.Execs[0].Behaviour()
	var sb strings.Builder
	for _, e := range r.Execs[1:] {
		if b := e.Behaviour(); b != ref {
			fmt.Fprintf(&sb, "%s: %s\n  (reference %s: %s)\n",
				e.Config.Name, b, r.Execs[0].Config.Name, ref)
		}
	}
	return sb.String()
}

// Diverged reports whether any configuration disagrees with the
// reference, or the incremental oracle failed.
func (r *Result) Diverged() bool { return r.Divergence() != "" }

// Oracles lists the optional oracles the result's divergence is
// attributed to, in Mode.Oracles order. Each attribution is made
// where the verdict is produced: the sanitizer branch of execute, a
// compile refuted by certify, the incremental result. A divergence
// none of them produced (a miscompiled output, an engine
// disagreement) belongs to no optional oracle.
func (r *Result) Oracles() []string {
	var hit Mode
	if r.configDivergence() != "" {
		for _, e := range r.Execs {
			hit.Sanitize = hit.Sanitize || e.Oracle == OracleSanitize
			hit.Certify = hit.Certify || e.Oracle == OracleCertify
		}
	}
	hit.Incremental = r.Incremental != nil && r.Incremental.Diverged()
	return hit.Oracles()
}

// Mode selects the engines and optional oracles of a differential
// comparison beyond the cross-configuration diff itself.
type Mode struct {
	// BothEngines executes each compilation on the reference switch
	// engine too and reports any flat-vs-switch disagreement.
	BothEngines bool
	// Engines lists additional engines to cross-check beyond the ones
	// BothEngines implies; every listed engine executes each
	// compilation and must agree with the flat engine on output, exit,
	// error text, and dynamic counts. Listing the native engine turns
	// every seed into a translation-validation check of the codegen.
	Engines []interp.Engine
	// Sanitize runs each compilation on the switch engine under the
	// analysis-soundness sanitizer; any violation is reported as a
	// divergence on that configuration (the third oracle, beside
	// engine parity and config divergence). The sanitizer is a
	// switch-engine hook, so Sanitize adds that engine to the matrix;
	// the flat run stays plain and is held to parity with it.
	Sanitize bool
	// Certify re-proves every promotion certificate with the
	// independent region-soundness verifier on each compilation (the
	// fourth oracle — a static one: a refuted certificate fails the
	// compile, which the diff reports as a divergence on that
	// configuration).
	Certify bool
	// Incremental runs the incremental-compilation oracle on each
	// seed (IncrementalSeed, the fifth oracle) and attaches its verdict
	// to the seed's Result. Only DiffSeedMode runs it: it derives its
	// edit from the seed's generator units, so DiffSourceMode, which
	// has no seed, ignores the field.
	Incremental bool
}

// The optional oracles' names, as ParseOracles accepts them.
const (
	OracleSanitize    = "sanitize"
	OracleCertify     = "certify"
	OracleIncremental = "incremental"
)

// ParseOracles resolves an oracle-list specification from a CLI flag
// (a comma list of "sanitize", "certify" and "incremental"; "" names
// none) into the Mode that runs them. Repeated names count once.
// Unknown names are rejected with the canonical diagnostic format
// (ir.Diag, check "oracle"), as driver.ParseEngines rejects engines.
func ParseOracles(spec string) (Mode, error) {
	var m Mode
	if spec == "" {
		return m, nil
	}
	for _, part := range strings.Split(spec, ",") {
		switch name := strings.TrimSpace(part); name {
		case OracleSanitize:
			m.Sanitize = true
		case OracleCertify:
			m.Certify = true
		case OracleIncremental:
			m.Incremental = true
		default:
			return Mode{}, ir.DiagError([]ir.Diag{{
				Check: "oracle",
				Index: -1,
				Msg:   `unknown oracle "` + name + `" (want sanitize, certify, or incremental)`,
			}})
		}
	}
	return m, nil
}

// Oracles lists the optional oracles the mode runs, in canonical
// order.
func (m Mode) Oracles() []string {
	var out []string
	if m.Sanitize {
		out = append(out, OracleSanitize)
	}
	if m.Certify {
		out = append(out, OracleCertify)
	}
	if m.Incremental {
		out = append(out, OracleIncremental)
	}
	return out
}

// Args renders the mode as the rpfuzz flags that select it: -engines
// with the engine matrix when it holds more than the flat engine, and
// -oracles with the optional oracles when there are any. Parsing the
// flags back (driver.ParseEngines, ParseOracles) yields the same
// engine matrix and oracles.
func (m Mode) Args() []string {
	var args []string
	if engines := m.EngineMatrix(); len(engines) > 1 {
		names := make([]string, len(engines))
		for i, e := range engines {
			names[i] = e.String()
		}
		args = append(args, "-engines", strings.Join(names, ","))
	}
	if oracles := m.Oracles(); len(oracles) > 0 {
		args = append(args, "-oracles", strings.Join(oracles, ","))
	}
	return args
}

// EngineMatrix resolves the mode's full, deduplicated engine list.
// The flat engine is always first: it is the primary whose behaviour
// feeds the cross-configuration diff, and every other engine is
// compared against it. BothEngines and Sanitize each bring in the
// switch engine, once.
func (m Mode) EngineMatrix() []interp.Engine {
	engines := []interp.Engine{interp.EngineFlat}
	seen := map[interp.Engine]bool{interp.EngineFlat: true}
	add := func(e interp.Engine) {
		if !seen[e] {
			seen[e] = true
			engines = append(engines, e)
		}
	}
	if m.BothEngines || m.Sanitize {
		add(interp.EngineSwitch)
	}
	for _, e := range m.Engines {
		add(e)
	}
	return engines
}

// DiffSourceMode compiles and executes src under every configuration
// of the matrix, with the mode's oracles. The front end runs once, and
// the configurations compile together through one
// driver.Frontend.CompileMatrix call, which runs each pass prefix they
// share once (compile-once sharing). Configurations whose compiled
// modules have equal content keys (driver.Compilation.ContentKey) run
// once between them: the first executes, and the others get a copy of
// its Execution under their own configuration. The distinct
// executions run through par, concurrently when the CPU budget has
// room, and land in matrix order. With Mode.BothEngines set, each compilation
// additionally executes on the reference switch engine, and any
// flat-vs-switch disagreement — output, exit code, dynamic counts, or
// error text — is reported as a divergence on that configuration. With
// Mode.Sanitize set, the switch-engine execution runs under the
// analysis-soundness sanitizer and its violations are divergences.
// Mode.Incremental is ignored.
func DiffSourceMode(filename, src string, matrix []driver.NamedConfig, mode Mode) *Result {
	cs, errs := compileMatrix(filename, src, matrix, mode.Certify)
	// same[i] is the configuration whose execution i copies (i itself
	// when it runs); run lists the ones that run, in matrix order.
	same := make([]int, len(matrix))
	var run []int
	first := map[cache.Key]int{}
	for i := range matrix {
		same[i] = i
		if errs[i] != nil {
			continue
		}
		k := cs[i].ContentKey()
		if j, ok := first[k]; ok {
			same[i] = j
			continue
		}
		first[k] = i
		run = append(run, i)
	}
	ran, _ := par.ParallelMap(len(run), 0, func(r int) (Execution, error) {
		return execute(cs[run[r]], matrix[run[r]], mode), nil
	})
	execs := make([]Execution, len(matrix))
	for r, i := range run {
		execs[i] = ran[r]
	}
	for i := range matrix {
		switch {
		case errs[i] != nil:
			execs[i] = compileFailure(matrix[i], errs[i])
		case same[i] != i:
			execs[i] = execs[same[i]]
			execs[i].Config = matrix[i]
		}
	}
	return &Result{Source: src, Mode: mode, Execs: execs, Executed: len(run)}
}

// compileFailure is a configuration's outcome when it failed to
// compile; a certificate refuted by certify is that oracle's verdict.
func compileFailure(nc driver.NamedConfig, err error) Execution {
	e := Execution{Config: nc, Err: fmt.Errorf("compile: %w", err)}
	var ce *driver.CheckError
	if errors.As(err, &ce) && ce.Pass == driver.PassCertify {
		e.Oracle = OracleCertify
	}
	return e
}

// compileMatrix parses src once and compiles it under every
// configuration of the matrix, with the certificate verifier on each
// when certify is set. It returns one compilation or one error per
// configuration; a front-end failure hits every configuration
// identically, exactly as per-configuration recompiles would see it.
func compileMatrix(filename, src string, matrix []driver.NamedConfig, certify bool) ([]*driver.Compilation, []error) {
	errs := make([]error, len(matrix))
	fe, err := driver.ParseSource(filename, src)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return make([]*driver.Compilation, len(matrix)), errs
	}
	cfgs := make([]driver.Config, len(matrix))
	for i, nc := range matrix {
		cfgs[i] = nc.Config
		if certify {
			cfgs[i].Certify = true
		}
	}
	cs, err := fe.CompileMatrix(cfgs, nil)
	var merr *driver.MatrixError
	if errors.As(err, &merr) {
		errs = merr.Errs
	}
	return cs, errs
}

// DiffSeedMode generates the seed's program and diffs it under the
// given oracle mode, running the incremental oracle on the seed too
// when the mode asks for it.
func DiffSeedMode(seed int64, matrix []driver.NamedConfig, mode Mode) *Result {
	r := DiffSourceMode(fmt.Sprintf("seed%d.c", seed), testgen.Program(seed), matrix, mode)
	r.Seed = seed
	if mode.Incremental {
		r.Incremental = IncrementalSeed(seed, matrix)
	}
	return r
}

// execute runs one compilation on every engine of the mode's matrix:
// the flat engine plainly, the others held to parity with it, and the
// switch engine under the sanitizer when the mode asks for it.
func execute(c *driver.Compilation, nc driver.NamedConfig, mode Mode) Execution {
	e := Execution{Config: nc}
	opts := interp.Options{MaxSteps: MaxSteps, Engine: interp.EngineFlat}
	res, rerr := c.Execute(opts)
	if rerr != nil {
		e.Err = fmt.Errorf("execute: %w", rerr)
	} else {
		e.Output = res.Output
		e.Exit = res.Exit
		e.Counts = res.Counts
	}
	// violations are the sanitized switch run's, reported only when
	// every engine agrees.
	var violations []ir.Diag
	for _, eng := range mode.EngineMatrix()[1:] {
		eopts := opts
		eopts.Engine = eng
		// The sanitizer is a switch-engine hook; every other engine is
		// still held to output/exit/error/count parity.
		eopts.Sanitize = mode.Sanitize && eng == interp.EngineSwitch
		sres, serr := c.Execute(eopts)
		if eopts.Sanitize && serr == nil {
			violations = sres.Violations
		}
		diverged := true
		switch {
		case rerr != nil && serr != nil:
			// Both engines failed: the error text must match exactly, or
			// the engines disagree about how the program goes wrong.
			if rerr.Error() != serr.Error() {
				e.Err = fmt.Errorf("engine divergence: flat error %q, %s error %q", rerr, eng, serr)
			} else {
				diverged = false
			}
		case rerr != nil || serr != nil:
			e.Err = fmt.Errorf("engine divergence: flat err=%v, %s err=%v", rerr, eng, serr)
		case res.Output != sres.Output || res.Exit != sres.Exit || res.Counts != sres.Counts:
			e.Err = fmt.Errorf(
				"engine divergence: flat exit=%d counts=%+v output=%q; %s exit=%d counts=%+v output=%q",
				res.Exit, res.Counts, res.Output, eng, sres.Exit, sres.Counts, sres.Output)
		default:
			diverged = false
		}
		if diverged {
			break
		}
	}
	if e.Err == nil && rerr == nil && len(violations) > 0 {
		e.Err = fmt.Errorf("sanitizer: %d violation(s): %s",
			len(violations), strings.Join(diagStrings(violations), "; "))
		e.Oracle = OracleSanitize
	}
	return e
}

// diagStrings renders a violation list in its stable string form,
// truncated for reporting.
func diagStrings(ds []ir.Diag) []string {
	out := make([]string, 0, len(ds))
	for i, d := range ds {
		if i == 5 {
			out = append(out, fmt.Sprintf("… %d more", len(ds)-i))
			break
		}
		out = append(out, d.String())
	}
	return out
}

// Failure is one divergent seed with its reduction and artifact
// location.
type Failure struct {
	Seed       int64
	Divergence string
	// Reduced is the shrunk source (equal to the original when
	// reduction was disabled or could not shrink it).
	Reduced string
	// Units counts the generated units kept in the reduced program.
	Units int
	// Dir is the corpus directory the artifact was written to (empty
	// when no corpus was requested).
	Dir string
}

// FuzzOptions configure a fuzzing run.
type FuzzOptions struct {
	// Start is the first seed; Seeds is how many consecutive seeds to
	// test.
	Start, Seeds int64
	// Parallel bounds concurrent seeds (<=0 means one worker per
	// CPU).
	Parallel int
	// Short trims the configuration matrix for smoke runs.
	Short bool
	// Mode selects the engines and optional oracles every seed runs
	// (see DiffSeedMode).
	Mode Mode
	// Reduce shrinks each program whose configurations diverge before
	// reporting it. An incremental-only divergence is reported
	// unreduced: the reducer replays the cross-configuration diff,
	// which does not reproduce it.
	Reduce bool
	// CorpusDir, when non-empty, receives a failure artifact per
	// divergent seed.
	CorpusDir string
	// Progress, when non-nil, is called with each seed's result as it
	// completes (from worker goroutines, possibly out of order).
	Progress func(r *Result)
}

// FuzzReport summarizes a fuzzing run.
type FuzzReport struct {
	Seeds    int64
	Matrix   []driver.NamedConfig
	Failures []Failure
}

// Fuzz differentially tests Seeds consecutive seeds and reports every
// divergence, reduced and archived according to the options. The seed
// loop runs on the shared bench worker pool; failures are reported in
// seed order regardless of schedule. The error return is for
// infrastructure problems (unwritable corpus); divergences are data,
// not errors.
func Fuzz(opts FuzzOptions) (*FuzzReport, error) {
	matrix := driver.DifferentialConfigurations(opts.Short)
	report := &FuzzReport{Seeds: opts.Seeds, Matrix: matrix}
	fails, err := par.ParallelMap(int(opts.Seeds), opts.Parallel, func(i int) (*Failure, error) {
		seed := opts.Start + int64(i)
		r := DiffSeedMode(seed, matrix, opts.Mode)
		if opts.Progress != nil {
			opts.Progress(r)
		}
		div := r.Divergence()
		if div == "" {
			return nil, nil
		}
		f := &Failure{Seed: seed, Divergence: div, Reduced: r.Source, Units: testgen.Units(seed)}
		if opts.Reduce && r.configDivergence() != "" {
			f.Reduced, f.Units = Reduce(seed, func(src string) bool {
				return DiffSourceMode(fmt.Sprintf("seed%d.c", seed), src, matrix, opts.Mode).Diverged()
			})
		}
		if opts.CorpusDir != "" {
			dir, err := WriteArtifacts(opts.CorpusDir, r, f.Reduced)
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

// WriteArtifacts archives a divergent result under dir/seed<NNN>:
// the generating source (prog.c), the reduced reproducer (reduced.c),
// the divergence summary with a repro command that selects the
// result's engines and oracles (repro.txt), and the final IL of each
// configuration (il-<config>.txt), recompiled from the reduced source
// as one matrix. An incremental divergence adds both program variants
// (base.c, mutated.c) and its first diverging IL pair (il-warm.txt,
// il-scratch.txt). It returns the artifact directory.
func WriteArtifacts(dir string, r *Result, reduced string) (string, error) {
	sub := filepath.Join(dir, fmt.Sprintf("seed%d", r.Seed))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return "", err
	}
	write := func(name, content string) error {
		return os.WriteFile(filepath.Join(sub, name), []byte(content), 0o644)
	}
	if err := write("prog.c", r.Source); err != nil {
		return "", err
	}
	if err := write("reduced.c", reduced); err != nil {
		return "", err
	}
	if inc := r.Incremental; inc != nil && inc.Diverged() {
		for name, content := range map[string]string{
			"base.c":         inc.Base,
			"mutated.c":      inc.Mutated,
			"il-warm.txt":    inc.WarmIL,
			"il-scratch.txt": inc.ScratchIL,
		} {
			if err := write(name, content); err != nil {
				return "", err
			}
		}
	}
	var repro strings.Builder
	fmt.Fprintf(&repro, "Divergence on seed %d.\n\n%s\n", r.Seed, r.Divergence())
	cmd := fmt.Sprintf("go run ./cmd/rpfuzz -start %d -seeds 1", r.Seed)
	if args := r.Mode.Args(); len(args) > 0 {
		cmd += " " + strings.Join(args, " ")
	}
	fmt.Fprintf(&repro, "Reproduce with:\n\n    %s\n\n", cmd)
	repro.WriteString("Per-configuration behaviour:\n\n")
	matrix := make([]driver.NamedConfig, len(r.Execs))
	for i := range r.Execs {
		matrix[i] = r.Execs[i].Config
	}
	cs, errs := compileMatrix(fmt.Sprintf("seed%d.c", r.Seed), reduced, matrix, false)
	for i := range r.Execs {
		e := &r.Execs[i]
		fmt.Fprintf(&repro, "  %-22s %s\n", e.Config.Name, e.Behaviour())
		var il string
		if errs[i] != nil {
			il = "; IL unavailable: " + errs[i].Error() + "\n"
		} else {
			il = ir.FormatModule(cs[i].Module)
		}
		if err := write("il-"+e.Config.Name+".txt", il); err != nil {
			return "", err
		}
	}
	if err := write("repro.txt", repro.String()); err != nil {
		return "", err
	}
	return sub, nil
}
