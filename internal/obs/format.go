package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// FormatTable renders a traced compile's pass records as the per-pass
// trace table rpcc -trace prints: one row per pass with its time, the
// instruction-count delta, and the static memory-operation deltas by
// Table-1 class (negative numbers mean the pass removed operations).
// A per-function pass's time is summed over functions, so with several
// workers it is worker time; the closing total line prints wall, the
// whole compile's wall time, instead of a sum of the rows.
func FormatTable(events []*PassEvent, wall time.Duration) string {
	if len(events) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-3s %-11s %10s %8s %8s %8s %8s %8s %9s %9s\n",
		"#", "pass", "Σworker", "Δinstr", "ΔsLoad", "ΔsStore", "ΔpLoad", "ΔpStore", "ΔsLd@loop", "ΔsSt@loop")
	for _, e := range events {
		d := e.Delta()
		fmt.Fprintf(&sb, "%-3d %-11s %10s %8d %8d %8d %8d %8d %9d %9d\n",
			e.Index, e.Name, fmtDuration(e.Duration()),
			d.Instrs, d.Mem.ScalarLoads, d.Mem.ScalarStores,
			d.Mem.PtrLoads, d.Mem.PtrStores, d.Loop.ScalarLoads, d.Loop.ScalarStores)
		if len(e.Extra) > 0 {
			fmt.Fprintf(&sb, "    %s\n", FormatExtra(e.Extra))
		}
	}
	last := events[len(events)-1].After
	fmt.Fprintf(&sb, "total %s wall  final: funcs=%d blocks=%d instrs=%d sLoad=%d sStore=%d pLoad=%d pStore=%d in-loop: loads=%d stores=%d\n",
		fmtDuration(wall), last.Funcs, last.Blocks, last.Instrs,
		last.Mem.ScalarLoads, last.Mem.ScalarStores, last.Mem.PtrLoads, last.Mem.PtrStores,
		last.Loop.Loads(), last.Loop.Stores())
	return sb.String()
}

// FormatExtra renders an extra-statistics map deterministically
// (sorted by key) as "k=v" pairs.
func FormatExtra(extra map[string]int64) string {
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, extra[k])
	}
	return strings.Join(parts, " ")
}

// fmtDuration renders a duration compactly with µs precision at most.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
