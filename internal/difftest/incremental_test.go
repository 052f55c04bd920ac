package difftest

import (
	"os"
	"path/filepath"
	"strings"
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

// TestFuzzIncrementalReportsClean drives Fuzz with the incremental
// oracle on, as rpfuzz -oracles incremental does, checking seed
// accounting, that every seed's result carries the oracle's verdict,
// and the no-failure report shape.
func TestFuzzIncrementalReportsClean(t *testing.T) {
	// Progress runs on the worker goroutines.
	var seen, verdicts atomic.Int64
	report, err := Fuzz(FuzzOptions{
		Start: 1, Seeds: 4, Short: true,
		Mode:      Mode{Incremental: true},
		CorpusDir: t.TempDir(),
		Progress: func(r *Result) {
			seen.Add(1)
			if r.Incremental != nil {
				verdicts.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen.Load() != 4 || report.Seeds != 4 {
		t.Fatalf("progress saw %d seeds, report says %d, want 4", seen.Load(), report.Seeds)
	}
	if verdicts.Load() != 4 {
		t.Fatalf("%d of 4 seeds carried an incremental verdict", verdicts.Load())
	}
	if len(report.Failures) != 0 {
		t.Fatalf("unexpected failures: %+v", report.Failures)
	}
}

// TestWriteArtifactsIncremental archives a synthetic incremental
// divergence: both program variants and the diverging IL pair land in
// the seed's directory beside repro.txt, which names the divergence
// and a repro command running the oracle.
func TestWriteArtifactsIncremental(t *testing.T) {
	matrix := driver.DifferentialConfigurations(true)[:1]
	r := DiffSeedMode(7, matrix, Mode{})
	r.Mode = Mode{Incremental: true}
	r.Incremental = &IncrementalResult{
		Seed: 7, Base: "int main(void) { return 0; }\n", Mutated: "int main(void) { return 1; }\n",
		Divergence: "ref-noopt/grow: warm IL differs from scratch\n",
		WarmIL:     "; warm\n", ScratchIL: "; scratch\n",
	}
	if got := r.Oracles(); len(got) != 1 || got[0] != OracleIncremental {
		t.Fatalf("oracles = %v, want [incremental]", got)
	}
	sub, err := WriteArtifacts(t.TempDir(), r, r.Source)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(sub) != "seed7" {
		t.Fatalf("artifact dir %s, want seed7", sub)
	}
	for name, want := range map[string]string{
		"base.c":         r.Incremental.Base,
		"mutated.c":      r.Incremental.Mutated,
		"il-warm.txt":    r.Incremental.WarmIL,
		"il-scratch.txt": r.Incremental.ScratchIL,
	} {
		data, err := os.ReadFile(filepath.Join(sub, name))
		if err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
		if string(data) != want {
			t.Errorf("%s = %q, want %q", name, data, want)
		}
	}
	repro, err := os.ReadFile(filepath.Join(sub, "repro.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"incremental ref-noopt/grow: warm IL differs", "rpfuzz -start 7 -seeds 1 -oracles incremental"} {
		if !strings.Contains(string(repro), want) {
			t.Errorf("repro.txt lacks %q:\n%s", want, repro)
		}
	}
}
