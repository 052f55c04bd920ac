package bench

import (
	"fmt"
	"strings"

	"regpromo/internal/analysis/certify"
)

// This file is the regression gate of the benchmark harness: it diffs
// two reports cell by cell (Compare) and classifies the deltas into
// regressions and improvements against a percentage threshold. Every
// quantity a report holds is deterministic — dynamic counts,
// promotions, spills, static pressure, the scale tier's SCC counts —
// so every delta gates.

// Delta is one compared quantity between two reports.
type Delta struct {
	// Program and Config locate the cell ("scale" and "" for the
	// scale tier's quantities).
	Program string `json:"program,omitempty"`
	Config  string `json:"config,omitempty"`
	// Metric names the compared quantity ("ops", "loads", "stores",
	// "promotions", "spilled", "pressure/over_budget", …).
	Metric string `json:"metric"`
	Old    int64  `json:"old"`
	New    int64  `json:"new"`
	// Percent is the signed relative change, 100*(new-old)/old.
	Percent float64 `json:"percent"`
	// Worse is the direction-adjusted verdict: true when the change
	// moves the metric the bad way (more ops, fewer promotions).
	Worse bool `json:"worse"`
}

// CompareReport is the full diff of two benchmark reports.
type CompareReport struct {
	OldPath string `json:"old_path,omitempty"`
	NewPath string `json:"new_path,omitempty"`
	// Threshold is the gating percentage: a delta whose magnitude
	// reaches it is a regression (or improvement).
	Threshold float64 `json:"threshold"`
	Deltas    []Delta `json:"deltas"`
	// SkippedCells counts (program, config) cells present in only one
	// of the two reports and therefore not compared.
	SkippedCells int `json:"skipped_cells,omitempty"`
}

// configKey labels a configuration cell for display and matching.
func configKey(c *ConfigReport) string {
	if c.Promote {
		return c.Analysis + "+promote"
	}
	return c.Analysis
}

// pct computes the signed relative change; a move away from zero
// counts as 100%.
func pct(old, cur int64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return 100 * float64(cur-old) / float64(old)
}

// delta assembles one Delta; higherIsBetter flips the Worse verdict
// for quantities (promotions) where growth is the good direction.
func delta(program, config, metric string, old, cur int64, higherIsBetter bool) Delta {
	worse := cur > old
	if higherIsBetter {
		worse = cur < old
	}
	return Delta{
		Program: program,
		Config:  config,
		Metric:  metric,
		Old:     old,
		New:     cur,
		Percent: pct(old, cur),
		Worse:   old != cur && worse,
	}
}

// Compare diffs two benchmark reports cell by cell. Cells present in
// only one report are skipped and counted.
func Compare(old, cur *Report, threshold float64) *CompareReport {
	cr := &CompareReport{Threshold: threshold}
	for i := range cur.Programs {
		np := &cur.Programs[i]
		op, ok := old.Program(np.Name)
		if !ok {
			cr.SkippedCells += len(np.Configs)
			continue
		}
		for j := range np.Configs {
			nc := &np.Configs[j]
			oc, ok := op.Config(nc.Analysis, nc.Promote)
			if !ok {
				cr.SkippedCells++
				continue
			}
			key := configKey(nc)
			cr.Deltas = append(cr.Deltas,
				delta(np.Name, key, "ops", oc.Counts.Ops, nc.Counts.Ops, false),
				delta(np.Name, key, "loads", oc.Counts.Loads, nc.Counts.Loads, false),
				delta(np.Name, key, "stores", oc.Counts.Stores, nc.Counts.Stores, false),
				delta(np.Name, key, "promotions", int64(oc.Promotions), int64(nc.Promotions), true),
				delta(np.Name, key, "spilled", int64(oc.Spilled), int64(nc.Spilled), false),
			)
			// A promotion change that pushes a site over the register
			// budget — or deepens the worst boundary — is a regression
			// even when the dynamic counts improve (the spilling shows
			// up at allocation, not in the interpreter's counters).
			if len(oc.Pressure) > 0 || len(nc.Pressure) > 0 {
				cr.Deltas = append(cr.Deltas,
					delta(np.Name, key, "pressure/over_budget", overBudgetSites(oc.Pressure), overBudgetSites(nc.Pressure), false),
					delta(np.Name, key, "pressure/max_live", worstMaxLive(oc.Pressure), worstMaxLive(nc.Pressure), false),
				)
			}
		}
	}
	// Scale-tier cell: an incremental-analysis regression shows up as
	// warm sccs_solved growing or sccs_cached shrinking. Identical
	// flipping from 1 to 0 is a 100% move.
	if old.Scale != nil && cur.Scale != nil &&
		old.Scale.Seed == cur.Scale.Seed && old.Scale.Functions == cur.Scale.Functions {
		os, cs := old.Scale, cur.Scale
		cr.Deltas = append(cr.Deltas,
			delta("scale", "", "sccs", int64(os.SCCs), int64(cs.SCCs), false),
			delta("scale", "", "cold/sccs_solved", int64(os.Cold.SCCsSolved), int64(cs.Cold.SCCsSolved), false),
			delta("scale", "", "warm/sccs_solved", int64(os.Warm.SCCsSolved), int64(cs.Warm.SCCsSolved), false),
			delta("scale", "", "warm/sccs_cached", int64(os.Warm.SCCsCached), int64(cs.Warm.SCCsCached), true),
			delta("scale", "", "identical", boolInt(os.Identical), boolInt(cs.Identical), true),
		)
	}
	return cr
}

// overBudgetSites counts a cell's promotion sites flagged over the
// register budget.
func overBudgetSites(ps []certify.Pressure) int64 {
	var n int64
	for i := range ps {
		if ps[i].OverBudget {
			n++
		}
	}
	return n
}

// worstMaxLive returns the largest simultaneously-live promoted-value
// count across a cell's promotion sites.
func worstMaxLive(ps []certify.Pressure) int64 {
	var max int64
	for i := range ps {
		if v := int64(ps[i].MaxLive); v > max {
			max = v
		}
	}
	return max
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// overThreshold reports whether d's magnitude reaches the gate.
func (cr *CompareReport) overThreshold(d Delta) bool {
	mag := d.Percent
	if mag < 0 {
		mag = -mag
	}
	return mag >= cr.Threshold
}

// Regressions returns the deltas that moved the bad direction past
// the threshold — the set that makes OK() false.
func (cr *CompareReport) Regressions() []Delta {
	var out []Delta
	for _, d := range cr.Deltas {
		if d.Worse && cr.overThreshold(d) {
			out = append(out, d)
		}
	}
	return out
}

// Improvements returns the deltas that moved the good direction past
// the threshold.
func (cr *CompareReport) Improvements() []Delta {
	var out []Delta
	for _, d := range cr.Deltas {
		if !d.Worse && d.Old != d.New && cr.overThreshold(d) {
			out = append(out, d)
		}
	}
	return out
}

// OK reports whether the comparison found no regression.
func (cr *CompareReport) OK() bool { return len(cr.Regressions()) == 0 }

// Format renders the comparison as a table: regressions first, then
// improvements, then a one-line summary.
func (cr *CompareReport) Format() string {
	var sb strings.Builder
	row := func(verdict string, d Delta) {
		loc := d.Metric
		if d.Program != "" {
			loc = fmt.Sprintf("%s/%s %s", d.Program, d.Config, d.Metric)
		}
		fmt.Fprintf(&sb, "%-12s %-42s %14d -> %-14d %+7.2f%%\n", verdict, loc, d.Old, d.New, d.Percent)
	}
	regs := cr.Regressions()
	imps := cr.Improvements()
	for _, d := range regs {
		row("REGRESSION", d)
	}
	for _, d := range imps {
		row("improvement", d)
	}
	if len(regs) == 0 && len(imps) == 0 {
		sb.WriteString("no change past threshold\n")
	}
	fmt.Fprintf(&sb, "compared %d deltas (threshold %.2f%%): %d regression(s), %d improvement(s)",
		len(cr.Deltas), cr.Threshold, len(regs), len(imps))
	if cr.SkippedCells > 0 {
		fmt.Fprintf(&sb, ", %d cell(s) skipped (present in only one report)", cr.SkippedCells)
	}
	sb.WriteString("\n")
	return sb.String()
}
