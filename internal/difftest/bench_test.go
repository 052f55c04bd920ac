package difftest

import (
	"testing"

	"regpromo/internal/driver"
)

// BenchmarkDiffSeeds runs the repository benchmark's fuzz unit: testgen
// seeds 1–32 through DiffSeedMode under the full differential matrix,
// both interpreter engines, the sanitizer and certify. Thousands of
// tiny compiles make it the benchmark where per-function fixed costs
// of the middle end show.
func BenchmarkDiffSeeds(b *testing.B) {
	matrix := driver.DifferentialConfigurations(false)
	mode := Mode{BothEngines: true, Sanitize: true, Certify: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for seed := int64(1); seed <= 32; seed++ {
			if d := DiffSeedMode(seed, matrix, mode).Divergence(); d != "" {
				b.Fatalf("seed %d diverged:\n%s", seed, d)
			}
		}
	}
}
