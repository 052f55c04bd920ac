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

	"regpromo/internal/analysis/certify"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/par"
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
}

// Measure compiles p under cfg from source and executes it on the
// flat engine. The measurement matrix (RunFigures, CollectReport)
// does not go through here: it parses each program once and compiles
// its configurations together as one matrix.
func Measure(p Program, cfg driver.Config) (*Measurement, error) {
	c, err := driver.CompileSource(p.Name+".c", Source(p), cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return execute(p, c)
}

// execute runs a compiled program on the flat engine and packages the
// measurement.
func execute(p Program, c *driver.Compilation) (*Measurement, error) {
	res, err := c.Execute(interp.Options{MaxSteps: 1 << 33})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return &Measurement{
		Counts:   res.Counts,
		Output:   res.Output,
		Promote:  c.Promote.ScalarPromotions + c.Promote.PointerPromotions,
		Spilled:  c.Alloc.Spilled,
		Pressure: c.Pressure(),
	}, nil
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

// figureMetrics lists the metrics in figure order (5, 6, 7, 8).
var figureMetrics = []Metric{TotalOps, Stores, Loads, WeightedCycles}

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
	// Parallel bounds how many programs are measured concurrently:
	// 1 (or less) measures serially, 0 is treated as 1, and larger
	// values fan the suite out over a worker pool. Results are
	// assembled in suite order either way, so the tables and reports
	// a parallel run produces are identical to a serial run's.
	Parallel int
}

// workers normalizes Options.Parallel for par.ParallelMap: the
// harness keeps "unset" meaning serial.
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

// analyses are the paper's two interprocedural analyses, in the
// tables' row order.
var analyses = []driver.Analysis{driver.ModRef, driver.PointsTo}

// measureProgram runs one suite member under the four-configuration
// matrix ({modref, pointer} × {without, with promotion}) and
// cross-checks the outputs: a configuration that changes a program's
// observable output indicates a miscompilation and fails the
// measurement. The front end runs once, and the four configurations
// compile together as one matrix (driver.Frontend.CompileMatrix),
// which runs the passes each analysis pair shares before promotion
// once.
func measureProgram(p Program, opts Options) (ProgramReport, error) {
	pr := ProgramReport{Name: p.Name, Lines: Lines(p)}
	fe, err := driver.ParseSource(p.Name+".c", Source(p))
	if err != nil {
		return pr, fmt.Errorf("%s: %w", p.Name, err)
	}
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
		return pr, fmt.Errorf("%s: %w", p.Name, err)
	}
	var output string
	for i, c := range cs {
		m, err := execute(p, c)
		if err != nil {
			return pr, err
		}
		if i == 0 {
			output = m.Output
		} else if m.Output != output {
			return pr, fmt.Errorf("%s: configurations disagree on program output", p.Name)
		}
		pr.Configs = append(pr.Configs, ConfigReport{
			Analysis:   cfgs[i].Analysis.String(),
			Promote:    cfgs[i].Promote,
			Counts:     m.Counts,
			Promotions: m.Promote,
			Spilled:    m.Spilled,
			Pressure:   m.Pressure,
		})
	}
	return pr, nil
}

// measureSuite measures the selected programs, Options.Parallel at a
// time, and returns them in suite order, so parallel and serial runs
// produce identical results.
func measureSuite(opts Options) ([]ProgramReport, error) {
	programs := opts.selected()
	return par.ParallelMap(len(programs), opts.workers(), func(i int) (ProgramReport, error) {
		return measureProgram(programs[i], opts)
	})
}

// figureRows derives the rows of Figures 5, 6, and 7, plus the Figure
// 8 weighted-cycles extension, from the programs' cells.
func figureRows(programs []ProgramReport) map[Metric][]Row {
	rows := map[Metric][]Row{}
	for i := range programs {
		p := &programs[i]
		for _, analysis := range analyses {
			without, okW := p.Config(analysis.String(), false)
			with, okP := p.Config(analysis.String(), true)
			if !okW || !okP {
				continue
			}
			for _, metric := range figureMetrics {
				rows[metric] = append(rows[metric], Row{
					Program:  p.Name,
					Analysis: analysis.String(),
					Without:  metric.pick(without.Counts),
					With:     metric.pick(with.Counts),
				})
			}
		}
	}
	return rows
}

// RunFigures executes the full measurement matrix: each program is
// compiled and run four times, and rows for Figures 5, 6, and 7 (plus
// the Figure 8 weighted-cycles extension) are assembled from the same
// runs.
func RunFigures(opts Options) (*FigureResult, error) {
	programs, err := measureSuite(opts)
	if err != nil {
		return nil, err
	}
	fr := &FigureResult{
		Rows:       figureRows(programs),
		Promotions: map[string]int{},
		Spills:     map[string]int{},
	}
	for i := range programs {
		p := &programs[i]
		for _, analysis := range analyses {
			if with, ok := p.Config(analysis.String(), true); ok {
				key := p.Name + "/" + analysis.String()
				fr.Promotions[key] = with.Promotions
				fr.Spills[key] = with.Spilled
			}
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
