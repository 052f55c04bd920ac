package difftest

import (
	"sync/atomic"
	"testing"

	"regpromo/internal/driver"
)

// TestIncrementalSeedsClean runs the incremental oracle on a handful
// of generator seeds with the short matrix: every warm compile must be
// byte-identical to scratch, and the mutation must actually produce a
// different program (otherwise the oracle degrades to a replay check).
func TestIncrementalSeedsClean(t *testing.T) {
	matrix := driver.DifferentialConfigurations(true)
	for seed := int64(1); seed <= 6; seed++ {
		r := IncrementalSeed(seed, matrix)
		if r.Diverged() {
			t.Fatalf("seed %d: incremental compile diverged:\n%s", seed, r.Divergence)
		}
		if r.Mutated == r.Base {
			t.Fatalf("seed %d: no removable unit found, oracle degraded", seed)
		}
	}
}

// TestFuzzIncrementalReportsClean drives the batch entry point the CLI
// uses, checking seed accounting and the no-failure report shape.
func TestFuzzIncrementalReportsClean(t *testing.T) {
	// Progress runs on the worker goroutines.
	var seen atomic.Int64
	report, err := FuzzIncremental(IncrementalOptions{
		Start: 1, Seeds: 4, Short: true,
		CorpusDir: t.TempDir(),
		Progress:  func(int64, bool) { seen.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen.Load() != 4 || report.Seeds != 4 {
		t.Fatalf("progress saw %d seeds, report says %d, want 4", seen.Load(), report.Seeds)
	}
	if len(report.Failures) != 0 {
		t.Fatalf("unexpected failures: %+v", report.Failures)
	}
}
