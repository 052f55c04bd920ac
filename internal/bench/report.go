package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"regpromo/internal/analysis/certify"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/obs"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump it when the
// report shape changes incompatibly. regpromo-bench/2 added the
// per-stage compile wall-time breakdown (ConfigReport.StageNS: wall
// time by frontend / interprocedural analysis / per-function passes);
// regpromo-bench/3 added the process-wide metrics snapshot
// (Report.Metrics) captured after the measurement matrix ran;
// regpromo-bench/4 added the scale-tier cell (Report.Scale: cold vs
// warm incremental-analysis cost on a ~1000-function module);
// regpromo-bench/5 added per-engine execution cells
// (ConfigReport.Execs: one timed run per requested engine — flat,
// switch, native — with Exec kept as the first engine's event for
// older readers); regpromo-bench/6 added the static register-pressure
// reports (ConfigReport.Pressure: per promotion site, how many
// promoted values are simultaneously live against the K budget).
const SchemaVersion = "regpromo-bench/6"

// BaselineGlob matches versioned benchmark reports in the repo root.
const BaselineGlob = "BENCH_*.json"

// Report is the machine-readable benchmark trajectory: the paper's
// full figure matrix plus per-pass compile telemetry for every
// program under all four measurement configurations.
type Report struct {
	Schema string `json:"schema"`
	// Timestamp is when the run happened (RFC 3339); the caller
	// stamps it so report generation itself stays deterministic.
	Timestamp string `json:"timestamp,omitempty"`
	// MemLatency is the WeightedCycles memory-op weight in effect.
	MemLatency int             `json:"mem_latency"`
	Programs   []ProgramReport `json:"programs"`
	Figures    []FigureReport  `json:"figures"`
	// Metrics is the process-wide metrics snapshot taken right after
	// the matrix ran, when metrics were enabled for the run (schema 3+).
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
	// Scale is the scale-tier cell, present when the run included
	// `-tier scale` (schema 4+).
	Scale *ScaleReport `json:"scale,omitempty"`
}

// ProgramReport is one suite member's results across configurations.
type ProgramReport struct {
	Name    string         `json:"name"`
	Lines   int            `json:"lines"`
	Configs []ConfigReport `json:"configs"`
}

// ConfigReport is one (program, configuration) cell of the matrix.
type ConfigReport struct {
	// Analysis is "modref" or "pointer"; Promote marks the paper's
	// "with promotion" column.
	Analysis string `json:"analysis"`
	Promote  bool   `json:"promote"`
	// Counts are the dynamic execution counters (Figures 5, 6, and 7
	// feed off these).
	Counts interp.Counts `json:"counts"`
	// Promotions and Spilled are the compile-side diagnostics.
	Promotions int `json:"promotions"`
	Spilled    int `json:"spilled"`
	// CompileNS is the pass records' times summed (a per-function
	// pass's time is itself summed over functions, so this is worker
	// time, not wall time); StageNS breaks it down by coarse compile
	// stage (driver.PassStage: "frontend", "analysis", "passes");
	// Passes itemizes it with per-pass IR deltas and statistics.
	CompileNS int64            `json:"compile_ns"`
	StageNS   map[string]int64 `json:"stage_ns,omitempty"`
	Passes    []*obs.PassEvent `json:"passes"`
	// Exec records the execution side: engine, compile-once reuse,
	// and run wall time. In a multi-engine run it duplicates Execs[0]
	// so readers of older schemas keep working.
	Exec obs.ExecEvent `json:"exec,omitempty"`
	// Execs is the per-engine execution record (schema 5+), one event
	// per engine in the order the run requested. Counts are identical
	// across engines by the parity contract; only the wall times
	// differ, which is exactly what the native-speedup ratio reads.
	Execs []obs.ExecEvent `json:"execs,omitempty"`
	// Pressure is the static register-pressure report per promotion
	// site (schema 6+): present only in promoting configurations, and
	// fully deterministic — it survives StripTimings. An over-budget
	// site is the static signature of the paper's water anecdote.
	Pressure []certify.Pressure `json:"pressure,omitempty"`
}

// FigureReport is one rendered figure of the paper's matrix.
type FigureReport struct {
	Figure int         `json:"figure"`
	Metric string      `json:"metric"`
	Rows   []ReportRow `json:"rows"`
}

// ReportRow is a figure row with the derived columns made explicit.
type ReportRow struct {
	Program        string  `json:"program"`
	Analysis       string  `json:"analysis"`
	Without        int64   `json:"without"`
	With           int64   `json:"with"`
	Difference     int64   `json:"difference"`
	PercentRemoved float64 `json:"percent_removed"`
}

// figureNumbers maps each metric to its figure number (8 is this
// reproduction's weighted-cycles extension).
var figureNumbers = map[Metric]int{TotalOps: 5, Stores: 6, Loads: 7, WeightedCycles: 8}

// CollectReport runs the full observed measurement matrix: every
// selected program is compiled with pass-manager telemetry and
// executed under all four paper configurations. Outputs are
// cross-checked across configurations, as in RunFigures, and
// Options.Parallel fans the programs out the same way; everything in
// the report except wall-clock pass timings is identical between
// serial and parallel runs.
func CollectReport(opts Options) (*Report, error) {
	programs := opts.selected()
	reports, err := ParallelMap(len(programs), opts.workers(), func(i int) (ProgramReport, error) {
		return collectProgram(programs[i], opts)
	})
	if err != nil {
		return nil, err
	}
	r := &Report{Schema: SchemaVersion, MemLatency: MemLatency, Programs: reports}
	r.Figures = r.buildFigures()
	if reg := obs.Metrics(); reg != nil {
		r.Metrics = reg.Snapshot()
	}
	return r, nil
}

// collectProgram measures one suite member under all four paper
// configurations with telemetry attached. The front end runs once per
// program; each configuration's pipeline is forked from the shared
// artifact and its trace records the "frontend.reuse" stage in place
// of a repeated parse.
func collectProgram(p Program, opts Options) (ProgramReport, error) {
	pr := ProgramReport{Name: p.Name, Lines: Lines(p)}
	fe, err := frontend(p)
	if err != nil {
		return pr, err
	}
	var outputs []string
	for _, analysis := range []driver.Analysis{driver.ModRef, driver.PointsTo} {
		for _, promote := range []bool{false, true} {
			cfg := driver.Config{Analysis: analysis, Promote: promote, K: opts.K, Certify: opts.Certify}
			if promote {
				cfg.PointerPromote = opts.PointerPromotion
			}
			m, err := measureSharedEngines(p, fe, cfg, opts.engineList(), obs.NewTracer())
			if err != nil {
				return pr, err
			}
			outputs = append(outputs, m.Output)
			var compileNS int64
			stageNS := make(map[string]int64)
			for _, e := range m.Passes {
				compileNS += e.DurationNS
				stageNS[driver.PassStage(e.Name)] += e.DurationNS
			}
			pr.Configs = append(pr.Configs, ConfigReport{
				Analysis:   analysis.String(),
				Promote:    promote,
				Counts:     m.Counts,
				Promotions: m.Promote,
				Spilled:    m.Spilled,
				CompileNS:  compileNS,
				StageNS:    stageNS,
				Passes:     m.Passes,
				Exec:       m.Exec,
				Execs:      m.Execs,
				Pressure:   m.Pressure,
			})
		}
	}
	for _, o := range outputs[1:] {
		if o != outputs[0] {
			return pr, fmt.Errorf("%s: configurations disagree on program output", p.Name)
		}
	}
	return pr, nil
}

// buildFigures derives the rows of Figures 5, 6, and 7 — plus the
// Figure 8 weighted-cycles extension — from the per-config counts.
func (r *Report) buildFigures() []FigureReport {
	var figs []FigureReport
	for _, metric := range []Metric{TotalOps, Stores, Loads, WeightedCycles} {
		fr := FigureReport{Figure: figureNumbers[metric], Metric: metric.String()}
		for _, p := range r.Programs {
			for _, analysis := range []string{"modref", "pointer"} {
				without, okW := p.Config(analysis, false)
				with, okP := p.Config(analysis, true)
				if !okW || !okP {
					continue
				}
				row := ReportRow{
					Program:  p.Name,
					Analysis: analysis,
					Without:  metric.pick(without.Counts),
					With:     metric.pick(with.Counts),
				}
				row.Difference = row.Without - row.With
				if row.Without != 0 {
					row.PercentRemoved = 100 * float64(row.Difference) / float64(row.Without)
				}
				fr.Rows = append(fr.Rows, row)
			}
		}
		figs = append(figs, fr)
	}
	return figs
}

// ExecFor returns the cell's execution event for the named engine,
// if the cell recorded one. Schema-5 cells are searched by engine;
// older reports carry a single legacy Exec event, which matches by
// its engine name (reports predating the engine label count as flat).
func (c *ConfigReport) ExecFor(engine string) (*obs.ExecEvent, bool) {
	for i := range c.Execs {
		if c.Execs[i].Engine == engine {
			return &c.Execs[i], true
		}
	}
	if len(c.Execs) == 0 && c.Exec != (obs.ExecEvent{}) {
		if c.Exec.Engine == engine || (c.Exec.Engine == "" && engine == "flat") {
			return &c.Exec, true
		}
	}
	return nil, false
}

// Config returns the cell for (analysis, promote), if present.
func (p *ProgramReport) Config(analysis string, promote bool) (*ConfigReport, bool) {
	for i := range p.Configs {
		c := &p.Configs[i]
		if c.Analysis == analysis && c.Promote == promote {
			return c, true
		}
	}
	return nil, false
}

// Program returns the named program's report, if present.
func (r *Report) Program(name string) (*ProgramReport, bool) {
	for i := range r.Programs {
		if r.Programs[i].Name == name {
			return &r.Programs[i], true
		}
	}
	return nil, false
}

// StripTimings zeroes every wall-clock field — the report timestamp,
// per-config compile times, and per-pass durations. What remains is
// fully deterministic (counts, figure rows, IR snapshots), so two
// stripped reports from the same code are byte-identical however they
// were scheduled; the determinism tests compare serial and parallel
// runs this way.
func (r *Report) StripTimings() {
	r.Timestamp = ""
	// The metrics snapshot is process-wide — it accumulates across every
	// compilation the process ran, not just this report's matrix — so it
	// cannot survive a determinism comparison.
	r.Metrics = nil
	for i := range r.Programs {
		for j := range r.Programs[i].Configs {
			c := &r.Programs[i].Configs[j]
			c.CompileNS = 0
			c.StageNS = nil
			c.Exec.DurationNS = 0
			for k := range c.Execs {
				c.Execs[k].DurationNS = 0
			}
			for _, e := range c.Passes {
				e.DurationNS = 0
			}
		}
	}
	if r.Scale != nil {
		r.Scale.Cold.AnalysisNS, r.Scale.Cold.CompileNS = 0, 0
		r.Scale.Warm.AnalysisNS, r.Scale.Warm.CompileNS = 0, 0
		r.Scale.Speedup = 0
	}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadReport reads one BENCH_*.json file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !strings.HasPrefix(r.Schema, "regpromo-bench/") {
		return nil, fmt.Errorf("%s: unrecognized schema %q", path, r.Schema)
	}
	return &r, nil
}

// LatestBaseline loads the newest BENCH_*.json in dir (timestamped
// names sort chronologically). It returns os.ErrNotExist when no
// baseline has been recorded yet.
func LatestBaseline(dir string) (*Report, string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, BaselineGlob))
	if err != nil {
		return nil, "", err
	}
	if len(matches) == 0 {
		return nil, "", os.ErrNotExist
	}
	sort.Strings(matches)
	path := matches[len(matches)-1]
	r, err := LoadReport(path)
	if err != nil {
		return nil, "", err
	}
	return r, path, nil
}
