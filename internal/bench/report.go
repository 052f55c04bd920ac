package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"regpromo/internal/analysis/certify"
	"regpromo/internal/interp"
)

// SchemaVersion identifies the BENCH_*.json layout; LoadReport reads
// this version only. regpromo-bench/7 holds deterministic quantities
// only: the dynamic counts, compile-side diagnostics and static
// register pressure of every cell, the figure rows derived from them,
// and the scale tier's SCC counts. Wall-clock time is perfbench's to
// measure, repeated and with its spread.
const SchemaVersion = "regpromo-bench/7"

// BaselineGlob matches versioned benchmark reports in the repo root.
const BaselineGlob = "BENCH_*.json"

// Report is the machine-readable benchmark record: the paper's full
// figure matrix with every program's four configuration cells. Apart
// from the caller-stamped Timestamp it is deterministic, so two runs
// of the same code write the same bytes however they were scheduled.
type Report struct {
	Schema string `json:"schema"`
	// Timestamp is when the run happened (RFC 3339); the caller
	// stamps it so report generation itself stays deterministic.
	Timestamp string `json:"timestamp,omitempty"`
	// MemLatency is the WeightedCycles memory-op weight in effect.
	MemLatency int             `json:"mem_latency"`
	Programs   []ProgramReport `json:"programs"`
	Figures    []FigureReport  `json:"figures"`
	// Scale is the scale-tier cell, present when the run was
	// `-tier scale`.
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
	// Pressure is the static register-pressure report per promotion
	// site, present only in promoting configurations. An over-budget
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

// CollectReport runs the measurement matrix RunFigures runs and
// packages every cell, with the figure rows derived from them.
func CollectReport(opts Options) (*Report, error) {
	programs, err := measureSuite(opts)
	if err != nil {
		return nil, err
	}
	r := &Report{Schema: SchemaVersion, MemLatency: MemLatency, Programs: programs}
	rows := figureRows(programs)
	for i, metric := range figureMetrics {
		fr := FigureReport{Figure: 5 + i, Metric: metric.String()}
		for _, row := range rows[metric] {
			fr.Rows = append(fr.Rows, ReportRow{
				Program:        row.Program,
				Analysis:       row.Analysis,
				Without:        row.Without,
				With:           row.With,
				Difference:     row.Difference(),
				PercentRemoved: row.PercentRemoved(),
			})
		}
		r.Figures = append(r.Figures, fr)
	}
	return r, nil
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
	r, err := decodeReport(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// decodeReport parses a report at SchemaVersion. Any other schema is
// an error rather than a zero-filled read: a field the file's version
// does not carry would otherwise compare as zero. So is a program or
// cell listed twice, which Compare could not match unambiguously.
func decodeReport(data []byte) (*Report, error) {
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, err
	}
	if head.Schema != SchemaVersion {
		return nil, fmt.Errorf("schema %q, want %q", head.Schema, SchemaVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	programs := map[string]bool{}
	for i := range r.Programs {
		p := &r.Programs[i]
		if programs[p.Name] {
			return nil, fmt.Errorf("program %q listed twice", p.Name)
		}
		programs[p.Name] = true
		for j := range p.Configs {
			c := &p.Configs[j]
			if first, _ := p.Config(c.Analysis, c.Promote); first != c {
				return nil, fmt.Errorf("%s: cell %s listed twice", p.Name, configKey(c))
			}
		}
	}
	return &r, nil
}

// BaselineBefore loads the newest BENCH_*.json in dir other than
// exclude (compared by cleaned path; "" excludes nothing). Timestamped
// names sort chronologically. It returns os.ErrNotExist when no other
// baseline exists.
func BaselineBefore(dir, exclude string) (*Report, string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, BaselineGlob))
	if err != nil {
		return nil, "", err
	}
	sort.Strings(matches)
	ex := filepath.Clean(exclude)
	for i := len(matches) - 1; i >= 0; i-- {
		if filepath.Clean(matches[i]) == ex {
			continue
		}
		r, err := LoadReport(matches[i])
		if err != nil {
			return nil, "", err
		}
		return r, matches[i], nil
	}
	return nil, "", os.ErrNotExist
}
