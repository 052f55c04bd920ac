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
// corpus directory (WriteArtifacts). Fuzz drives the whole loop
// across a seed range on the shared bench worker pool; cmd/rpfuzz is
// its CLI.
package difftest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

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
	Execs  []Execution
}

// Divergence describes how the configurations disagree, or returns ""
// when they all agree. The first configuration (the no-opt reference)
// is the anchor every other configuration is compared against.
func (r *Result) Divergence() string {
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
// reference.
func (r *Result) Diverged() bool { return r.Divergence() != "" }

// Mode selects the optional oracles of a differential comparison
// beyond the cross-configuration diff itself.
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

// DiffSource compiles and executes src under every configuration of
// the matrix, on the default (flat) engine.
func DiffSource(filename, src string, matrix []driver.NamedConfig) *Result {
	return DiffSourceMode(filename, src, matrix, Mode{})
}

// DiffSourceEngines is DiffSource with the engine dimension exposed.
func DiffSourceEngines(filename, src string, matrix []driver.NamedConfig, bothEngines bool) *Result {
	return DiffSourceMode(filename, src, matrix, Mode{BothEngines: bothEngines})
}

// DiffSourceMode is DiffSource with every oracle dimension exposed.
// The front end runs once, and the configurations compile together
// through one driver.Frontend.CompileMatrix call, which runs each
// pass prefix they share once (compile-once sharing). With
// Mode.BothEngines set, each compilation additionally executes on the
// reference switch engine, and any flat-vs-switch disagreement —
// output, exit code, dynamic counts, or error text — is reported as a
// divergence on that configuration. With Mode.Sanitize set, the
// switch-engine execution runs under the analysis-soundness sanitizer
// and its violations are divergences.
func DiffSourceMode(filename, src string, matrix []driver.NamedConfig, mode Mode) *Result {
	r := &Result{Source: src}
	cs, errs := compileMatrix(filename, src, matrix, mode.Certify)
	for i, nc := range matrix {
		if errs[i] != nil {
			r.Execs = append(r.Execs, Execution{Config: nc, Err: fmt.Errorf("compile: %w", errs[i])})
			continue
		}
		r.Execs = append(r.Execs, execute(cs[i], nc, mode))
	}
	return r
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

// DiffSeed generates the seed's program and diffs it.
func DiffSeed(seed int64, matrix []driver.NamedConfig) *Result {
	return DiffSeedMode(seed, matrix, Mode{})
}

// DiffSeedEngines generates the seed's program and diffs it, with the
// both-engines cross-check when requested.
func DiffSeedEngines(seed int64, matrix []driver.NamedConfig, bothEngines bool) *Result {
	return DiffSeedMode(seed, matrix, Mode{BothEngines: bothEngines})
}

// DiffSeedMode generates the seed's program and diffs it under the
// given oracle mode.
func DiffSeedMode(seed int64, matrix []driver.NamedConfig, mode Mode) *Result {
	r := DiffSourceMode(fmt.Sprintf("seed%d.c", seed), testgen.Program(seed), matrix, mode)
	r.Seed = seed
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
	// Sanitizer is true when the divergence includes an
	// analysis-soundness sanitizer violation (as opposed to a pure
	// behavioural or engine disagreement).
	Sanitizer bool
	// Certify is true when the divergence includes a refuted
	// promotion certificate from the region-soundness verifier.
	Certify bool
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
	// BothEngines executes every compilation on both interpreter
	// engines (flat and the switch reference) and reports any
	// disagreement — counts included — as a divergence.
	BothEngines bool
	// Engines lists additional engines (e.g. the native backend) to
	// cross-check against the flat engine on every seed; see
	// Mode.Engines.
	Engines []interp.Engine
	// Sanitize runs every compilation on the switch engine under the
	// analysis-soundness sanitizer, the third oracle (see
	// Mode.Sanitize): any observed memory access outside the static
	// MOD/REF or points-to sets is a divergence, archived to the
	// corpus like any other.
	Sanitize bool
	// Certify re-proves every promotion certificate on every
	// compilation, the fourth oracle: a refuted certificate is a
	// divergence, archived to the corpus like any other.
	Certify bool
	// Reduce shrinks each failing program before reporting it.
	Reduce bool
	// CorpusDir, when non-empty, receives a failure artifact per
	// divergent seed.
	CorpusDir string
	// Progress, when non-nil, is called after each seed completes
	// (from worker goroutines, possibly out of order). sanitizer and
	// certify report whether the seed's divergence includes an
	// analysis-soundness sanitizer violation or a refuted promotion
	// certificate, respectively.
	Progress func(seed int64, diverged, sanitizer, certify bool)
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
		r := DiffSeedMode(seed, matrix, Mode{BothEngines: opts.BothEngines, Engines: opts.Engines, Sanitize: opts.Sanitize, Certify: opts.Certify})
		div := r.Divergence()
		sanitizer := strings.Contains(div, "sanitizer:")
		certify := strings.Contains(div, "[certify")
		if opts.Progress != nil {
			opts.Progress(seed, div != "", sanitizer, certify)
		}
		if div == "" {
			return nil, nil
		}
		f := &Failure{Seed: seed, Divergence: div, Sanitizer: sanitizer, Certify: certify, Reduced: r.Source, Units: testgen.Units(seed)}
		if opts.Reduce {
			f.Reduced, f.Units = Reduce(seed, func(src string) bool {
				m := Mode{BothEngines: opts.BothEngines, Engines: opts.Engines, Sanitize: opts.Sanitize, Certify: opts.Certify}
				return DiffSourceMode(fmt.Sprintf("seed%d.c", seed), src, matrix, m).Diverged()
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
// the divergence summary with a repro command (repro.txt), and the
// final IL of each configuration (il-<config>.txt), recompiled from
// the reduced source as one matrix. It returns the artifact directory.
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
	var repro strings.Builder
	fmt.Fprintf(&repro, "Differential divergence on seed %d.\n\n%s\n", r.Seed, r.Divergence())
	fmt.Fprintf(&repro, "Reproduce with:\n\n    go run ./cmd/rpfuzz -start %d -seeds 1\n\n", r.Seed)
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
