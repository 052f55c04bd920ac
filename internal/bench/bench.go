// Package bench packages the 14-program workload suite standing in
// for the paper's benchmarks (Figure 4) and the measurement harness
// that regenerates the evaluation tables: total operations executed
// (Figure 5), stores executed (Figure 6), and loads executed
// (Figure 7), each measured without and with register promotion under
// MOD/REF analysis and under points-to analysis.
package bench

import (
	"embed"
	"fmt"
	"strings"
	"time"

	"regpromo/internal/analysis/certify"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/obs"
)

//go:embed programs/*.c
var sources embed.FS

// Program describes one suite member.
type Program struct {
	// Name is the paper's program name.
	Name string
	// File is the embedded source path.
	File string
	// Desc matches the Figure 4 description column.
	Desc string
}

// Suite lists the benchmark programs in the paper's Figure 4 order
// (gzip appears once per direction, as in the result tables).
func Suite() []Program {
	return []Program{
		{"tsp", "programs/tsp.c", "a traveling salesman problem"},
		{"mlink", "programs/mlink.c", "genetic linkage analysis (FASTLINK)"},
		{"fft", "programs/fft.c", "fast Fourier transform"},
		{"clean", "programs/clean.c", "dead-code elimination pass"},
		{"caches", "programs/caches.c", "cache simulator"},
		{"li", "programs/li.c", "lisp interpreter from SPEC"},
		{"dhrystone", "programs/dhrystone.c", "synthetic integer benchmark"},
		{"water", "programs/water.c", "molecular dynamics simulation"},
		{"indent", "programs/indent.c", "prettyprinter for C programs"},
		{"allroots", "programs/allroots.c", "polynomial root-finder"},
		{"bc", "programs/bc.c", "calculator language from GNU"},
		{"bison", "programs/bison.c", "LR(1) parser generator"},
		{"geb", "programs/geb.c", "graphics compression code from SPEC"},
		{"gzip(enc)", "programs/gzip_enc.c", "file compression (compressing)"},
		{"gzip(dec)", "programs/gzip_dec.c", "file compression (decompressing)"},
	}
}

// Source returns a program's C text.
func Source(p Program) string {
	data, err := sources.ReadFile(p.File)
	if err != nil {
		panic("bench: missing embedded source " + p.File)
	}
	return string(data)
}

// Lines counts source lines, for the Figure 4 listing.
func Lines(p Program) int {
	return strings.Count(Source(p), "\n")
}

// Measurement is one compile-and-run data point.
type Measurement struct {
	Counts  interp.Counts
	Output  string
	Promote int // scalar + pointer promotions performed
	Spilled int

	// Pressure is the static register-pressure report per promotion
	// site (empty when nothing was promoted); see certify.Pressure.
	Pressure []certify.Pressure

	// Exec records how the run happened: which execution engine, a
	// shared or from-scratch front end, and the execution wall time.
	// In a multi-engine measurement it is the first engine's event;
	// Execs carries the full list.
	Exec obs.ExecEvent

	// Execs is the per-engine execution record, one event per engine
	// in the order requested. Single-engine measurements have exactly
	// one entry (aliased by Exec).
	Execs []obs.ExecEvent

	// Passes is the per-pass telemetry (span time, IR deltas, pass
	// stats) recorded when the measurement was traced; nil for plain
	// Measure calls.
	Passes []*obs.PassEvent
}

// Measure compiles p under cfg from source and executes it on the
// default (flat) engine. The measurement matrix (RunFigures,
// CollectReport) does not go through here: it parses each program once
// and forks the per-configuration pipelines from the shared artifact.
func Measure(p Program, cfg driver.Config) (*Measurement, error) {
	return measureWith(p, cfg, nil)
}

// MeasureObserved is Measure under a tracer: the returned measurement
// carries the full per-pass record list.
func MeasureObserved(p Program, cfg driver.Config) (*Measurement, error) {
	return measureWith(p, cfg, obs.NewTracer())
}

func measureWith(p Program, cfg driver.Config, tr *obs.Tracer) (*Measurement, error) {
	c, err := driver.Compile(p.Name+".c", Source(p), cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return execute(p, c, []interp.Engine{interp.EngineFlat}, false, tr)
}

// measureSharedEngines forks cfg's pipeline from the program's parsed
// artifact and executes the result once per engine, with the engines
// held to identical counts, output, and exit status (a disagreement
// fails the measurement — it would mean the parity contract the
// differential tests enforce has been broken on a real workload).
func measureSharedEngines(p Program, fe *driver.Frontend, cfg driver.Config, engines []interp.Engine, tr *obs.Tracer) (*Measurement, error) {
	c, err := fe.Compile(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return execute(p, c, engines, true, tr)
}

// frontend parses a suite member once for compile-once sharing.
func frontend(p Program) (*driver.Frontend, error) {
	fe, err := driver.ParseSource(p.Name+".c", Source(p))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return fe, nil
}

// execute runs a compiled program on each requested engine and
// packages the measurement. Engine setup cost — flat-code lowering,
// the native toolchain build — happens before the run timer starts,
// so the per-engine wall times compare pure execution. The first
// engine's counts and output define the measurement; every further
// engine must reproduce them exactly.
func execute(p Program, c *driver.Compilation, engines []interp.Engine, reused bool, tr *obs.Tracer) (*Measurement, error) {
	m := &Measurement{
		Promote:  c.Promote.ScalarPromotions + c.Promote.PointerPromotions,
		Spilled:  c.Alloc.Spilled,
		Pressure: c.Pressure(),
		Passes:   c.Passes,
	}
	for i, engine := range engines {
		opts := interp.Options{MaxSteps: 1 << 33, Engine: engine}
		if err := c.PrepareEngine(opts); err != nil {
			return nil, fmt.Errorf("%s: %s engine: %w", p.Name, engine, err)
		}
		// One untimed warmup run per engine, so the timed run measures
		// steady-state execution for every engine alike — a freshly
		// loaded native plugin otherwise pays its page-in and first-touch
		// costs inside the timed window, which swamps short programs.
		if _, err := c.Execute(opts); err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		sp := tr.Start("execute", "interp", 0).
			Label("program", p.Name).Label("engine", engine.String())
		start := time.Now()
		res, err := c.Execute(opts)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		sp.Arg("ops", res.Counts.Ops).
			Arg("loads", res.Counts.Loads).
			Arg("stores", res.Counts.Stores).
			End()
		if i == 0 {
			m.Counts = res.Counts
			m.Output = res.Output
		} else if res.Counts != m.Counts || res.Output != m.Output {
			return nil, fmt.Errorf("%s: engine parity broken: %s counts=%+v output %d bytes, %s counts=%+v output %d bytes",
				p.Name, engines[0], m.Counts, len(m.Output), engine, res.Counts, len(res.Output))
		}
		m.Execs = append(m.Execs, obs.ExecEvent{
			Engine:         engine.String(),
			FrontendReused: reused,
			DurationNS:     time.Since(start).Nanoseconds(),
		})
	}
	m.Exec = m.Execs[0]
	return m, nil
}

// Metric selects which dynamic count a figure reports.
type Metric int

const (
	// TotalOps is Figure 5.
	TotalOps Metric = iota
	// Stores is Figure 6.
	Stores
	// Loads is Figure 7.
	Loads
	// WeightedCycles prices each memory operation at MemLatency
	// cycles and everything else at one, quantifying the paper's
	// remark that "if memory operations take more cycles than other
	// operations, as in many modern machines, the positive impact
	// of promotion will be greater" (§5).
	WeightedCycles
)

// MemLatency is the cycle weight of a load or store in the
// WeightedCycles metric.
const MemLatency = 3

func (m Metric) String() string {
	switch m {
	case TotalOps:
		return "Total Operations"
	case Stores:
		return "Stores"
	case Loads:
		return "Loads"
	case WeightedCycles:
		return fmt.Sprintf("Weighted Cycles (memory op = %d)", MemLatency)
	}
	return "?"
}

func (m Metric) pick(c interp.Counts) int64 {
	switch m {
	case TotalOps:
		return c.Ops
	case Stores:
		return c.Stores
	case Loads:
		return c.Loads
	default:
		return c.Ops + (MemLatency-1)*(c.Loads+c.Stores)
	}
}

// Row is one (program, analysis) line of a results table.
type Row struct {
	Program  string
	Analysis string
	Without  int64
	With     int64
}

// Difference is Without-With (positive means promotion removed
// operations).
func (r Row) Difference() int64 { return r.Without - r.With }

// PercentRemoved matches the paper's "% removed" column.
func (r Row) PercentRemoved() float64 {
	if r.Without == 0 {
		return 0
	}
	return 100 * float64(r.Difference()) / float64(r.Without)
}

// Options tweak the measurement matrix.
type Options struct {
	// PointerPromotion enables §3.3 promotion in the "with" columns
	// (off for the paper's main tables; on for the §3.3 study).
	PointerPromotion bool
	// Programs restricts the suite (nil = all).
	Programs []string
	// K overrides the register supply (0 = default).
	K int
	// Certify re-proves every promotion certificate with the
	// independent region-soundness verifier during each measurement's
	// compile; a refuted certificate fails the measurement.
	Certify bool
	// Engine selects the execution engine for the measurement runs
	// (zero value = the flat engine). Counts are engine-independent —
	// the engines differential test holds them to byte equality — so
	// this only changes measurement wall time.
	Engine interp.Engine
	// Engines, when non-empty, runs every measurement on each listed
	// engine (overriding Engine): one report cell records a timed
	// execution per engine, all held to identical counts and output,
	// so throughput ratios (e.g. native over flat) land in one report.
	Engines []interp.Engine
	// Parallel bounds how many programs are measured concurrently:
	// 1 (or less) measures serially, 0 is treated as 1, and larger
	// values fan the suite out over a worker pool. Results are
	// assembled in suite order either way, so the tables and reports
	// a parallel run produces are identical to a serial run's.
	Parallel int
}

// engineList resolves the effective engine list: Engines verbatim
// when set, else the single Engine.
func (o Options) engineList() []interp.Engine {
	if len(o.Engines) > 0 {
		return o.Engines
	}
	return []interp.Engine{o.Engine}
}

// workers normalizes Options.Parallel for ParallelMap: the harness
// keeps "unset" meaning serial so existing callers measure exactly as
// before.
func (o Options) workers() int {
	if o.Parallel <= 1 {
		return 1
	}
	return o.Parallel
}

// selected returns the suite members the options ask for, in suite
// order.
func (o Options) selected() []Program {
	want := map[string]bool{}
	for _, n := range o.Programs {
		want[n] = true
	}
	var ps []Program
	for _, p := range Suite() {
		if len(want) > 0 && !want[p.Name] {
			continue
		}
		ps = append(ps, p)
	}
	return ps
}

// FigureResult holds every row of one figure for all three metrics
// (the three figures share the same measurement runs).
type FigureResult struct {
	Rows map[Metric][]Row
	// Promotions and Spills index diagnostics by "program/analysis".
	Promotions map[string]int
	Spills     map[string]int
}

// programFigures is one program's slice of the measurement matrix.
type programFigures struct {
	rows       map[Metric][]Row
	promotions map[string]int
	spills     map[string]int
}

// measureProgram runs one suite member under the four-configuration
// matrix and cross-checks the outputs: a configuration that changes a
// program's observable output indicates a miscompilation and fails
// the measurement. The front end runs once, and the four
// configurations compile together as one matrix (driver.Frontend.
// CompileMatrix), which runs the passes each analysis pair shares
// before promotion once.
func measureProgram(p Program, opts Options) (*programFigures, error) {
	pf := &programFigures{
		rows:       map[Metric][]Row{},
		promotions: map[string]int{},
		spills:     map[string]int{},
	}
	fe, err := frontend(p)
	if err != nil {
		return nil, err
	}
	analyses := []driver.Analysis{driver.ModRef, driver.PointsTo}
	var cfgs []driver.Config
	for _, analysis := range analyses {
		base := driver.Config{Analysis: analysis, K: opts.K, Certify: opts.Certify}
		with := base
		with.Promote = true
		with.PointerPromote = opts.PointerPromotion
		cfgs = append(cfgs, base, with)
	}
	cs, err := fe.CompileMatrix(cfgs, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	engine := opts.engineList()[:1]
	var outputs []string
	for a, analysis := range analyses {
		m0, err := execute(p, cs[2*a], engine, true, nil)
		if err != nil {
			return nil, err
		}
		m1, err := execute(p, cs[2*a+1], engine, true, nil)
		if err != nil {
			return nil, err
		}
		outputs = append(outputs, m0.Output, m1.Output)
		key := p.Name + "/" + analysis.String()
		pf.promotions[key] = m1.Promote
		pf.spills[key] = m1.Spilled
		for _, metric := range []Metric{TotalOps, Stores, Loads, WeightedCycles} {
			pf.rows[metric] = append(pf.rows[metric], Row{
				Program:  p.Name,
				Analysis: analysis.String(),
				Without:  metric.pick(m0.Counts),
				With:     metric.pick(m1.Counts),
			})
		}
	}
	for _, o := range outputs[1:] {
		if o != outputs[0] {
			return nil, fmt.Errorf("%s: configurations disagree on program output", p.Name)
		}
	}
	return pf, nil
}

// RunFigures executes the full measurement matrix: each program is
// compiled and run four times ({modref, pointer} × {without, with
// promotion}), and rows for Figures 5, 6, and 7 (plus the Figure 8
// weighted-cycles extension) are assembled from the same runs.
// Options.Parallel spreads the programs over a worker pool; rows are
// merged back in suite order, so parallel and serial runs produce
// identical results.
func RunFigures(opts Options) (*FigureResult, error) {
	programs := opts.selected()
	parts, err := ParallelMap(len(programs), opts.workers(), func(i int) (*programFigures, error) {
		return measureProgram(programs[i], opts)
	})
	if err != nil {
		return nil, err
	}
	fr := &FigureResult{
		Rows:       map[Metric][]Row{},
		Promotions: map[string]int{},
		Spills:     map[string]int{},
	}
	for _, pf := range parts {
		for metric, rows := range pf.rows {
			fr.Rows[metric] = append(fr.Rows[metric], rows...)
		}
		for k, v := range pf.promotions {
			fr.Promotions[k] = v
		}
		for k, v := range pf.spills {
			fr.Spills[k] = v
		}
	}
	return fr, nil
}

// FormatTable renders one figure in the paper's layout.
func FormatTable(metric Metric, rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", metric)
	fmt.Fprintf(&sb, "%-11s %-8s %12s %12s %12s %10s\n",
		"Program", "analysis", "without", "with", "difference", "% removed")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s %-8s %12d %12d %12d %10.2f\n",
			r.Program, r.Analysis, r.Without, r.With, r.Difference(), r.PercentRemoved())
	}
	return sb.String()
}

// FormatFigure4 renders the program-description table.
func FormatFigure4() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-11s %6s  %s\n", "Program", "Lines", "Description")
	for _, p := range Suite() {
		fmt.Fprintf(&sb, "%-11s %6d  %s\n", p.Name, Lines(p), p.Desc)
	}
	return sb.String()
}
