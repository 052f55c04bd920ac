package obs

import (
	"strings"
	"testing"
	"time"
)

// TestFormatTableEmpty checks the degenerate inputs: no records (an
// untraced compile) and an empty record list both render as the empty
// string (rpcc -trace prints nothing rather than a bare header).
func TestFormatTableEmpty(t *testing.T) {
	if got := FormatTable(nil, time.Second); got != "" {
		t.Errorf("nil records render %q", got)
	}
	if got := FormatTable([]*PassEvent{}, time.Second); got != "" {
		t.Errorf("empty records render %q", got)
	}
}

// TestFormatTableZeroDuration checks that instantaneous passes (the
// merged parallel middle end can record 0ns for a pass that did no
// work) render with an explicit 0µs, not garbage.
func TestFormatTableZeroDuration(t *testing.T) {
	snap := Snapshot{Funcs: 1, Blocks: 1, Instrs: 3}
	out := FormatTable([]*PassEvent{{Name: "noop", DurationNS: 0, Before: snap, After: snap}}, 0)
	if !strings.Contains(out, "0µs") {
		t.Errorf("zero-duration pass missing 0µs:\n%s", out)
	}
	if !strings.Contains(out, "total 0µs") {
		t.Errorf("total line missing 0µs:\n%s", out)
	}
}

// TestFormatTableTotalIsWall checks the total line prints the compile's
// wall time, not the sum of the rows: a per-function pass's row is
// summed over functions and workers, so on a parallel compile the rows
// add up to more than the wall clock saw.
func TestFormatTableTotalIsWall(t *testing.T) {
	snap := Snapshot{Funcs: 2, Blocks: 2, Instrs: 6}
	out := FormatTable([]*PassEvent{
		{Index: 0, Name: "modref", DurationNS: int64(760 * time.Millisecond), Before: snap, After: snap},
		{Index: 1, Name: "regalloc", DurationNS: int64(time.Second), Before: snap, After: snap},
	}, 1610*time.Millisecond)
	if !strings.Contains(out, "total 1.61s wall") {
		t.Errorf("total line is not the wall time:\n%s", out)
	}
	if strings.Contains(out, "1.76s") {
		t.Errorf("total line sums the rows:\n%s", out)
	}
	if header, _, _ := strings.Cut(out, "\n"); !strings.Contains(header, "Σworker") {
		t.Errorf("time column not labelled as summed worker time: %q", header)
	}
}

// TestFormatTableMergedSnapshots drives FormatTable with a record
// assembled the way the parallel middle end does it: per-function
// snapshots folded together with Add. The table's delta and
// final-state lines must reflect the merged sums.
func TestFormatTableMergedSnapshots(t *testing.T) {
	fnA := Snapshot{Funcs: 1, Blocks: 2, Instrs: 10, Mem: MemOps{ScalarLoads: 4, ScalarStores: 2}}
	fnB := Snapshot{Funcs: 1, Blocks: 3, Instrs: 20, Mem: MemOps{ScalarLoads: 6, PtrStores: 1}}
	before := fnA.Add(fnB)
	// Promotion removes 5 scalar loads from A and 2 from B.
	afterA, afterB := fnA, fnB
	afterA.Mem.ScalarLoads -= 3
	afterA.Instrs -= 3
	afterB.Mem.ScalarLoads -= 4
	afterB.Instrs -= 4
	out := FormatTable([]*PassEvent{{
		Name:       "promote",
		DurationNS: 1500,
		Before:     before,
		After:      afterA.Add(afterB),
		Extra:      map[string]int64{"promotions": 2},
	}}, 1500)
	// Δinstr −7, ΔsLoad −7 from the merged snapshots.
	if !strings.Contains(out, "-7") {
		t.Errorf("merged delta missing:\n%s", out)
	}
	if !strings.Contains(out, "funcs=2 blocks=5 instrs=23") {
		t.Errorf("final merged totals wrong:\n%s", out)
	}
	if !strings.Contains(out, "sLoad=3") {
		t.Errorf("final merged scalar loads wrong:\n%s", out)
	}
	if !strings.Contains(out, "promotions=2") {
		t.Errorf("extra line missing:\n%s", out)
	}
}
