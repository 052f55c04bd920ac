package driver_test

import (
	"testing"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/testgen"
)

// compileMatrix runs the paper's four measurement configurations over
// every suite program, forking each pipeline from a pre-parsed
// front-end artifact so the benchmark isolates the middle end (analysis
// + optimization + allocation) the way the rpbench matrix pays for it.
func compileMatrix(b *testing.B, workers int) {
	b.Helper()
	type job struct {
		name string
		fe   *driver.Frontend
	}
	var jobs []job
	for _, p := range bench.Suite() {
		fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, job{p.Name, fe})
	}
	configs := driver.Configurations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			for _, cfg := range configs {
				cfg.Workers = workers
				if _, err := j.fe.Compile(cfg, nil); err != nil {
					b.Fatalf("%s: %v", j.name, err)
				}
			}
		}
	}
}

// BenchmarkCompileMatrix measures the full rpbench compile matrix:
// every suite program under all four paper configurations.
func BenchmarkCompileMatrix(b *testing.B) {
	b.Run("serial", func(b *testing.B) { compileMatrix(b, 1) })
	b.Run("parallel", func(b *testing.B) { compileMatrix(b, 0) })
}

// compileScale times the cold compile of the 600-helper scale-profile
// module (seed 1) under points-to with promotion, forked from a
// pre-parsed front end and analyzed against a fresh cache store, so the
// measurement covers analysis, the middle end and allocation.
func compileScale(b *testing.B, workers int) {
	b.Helper()
	src := testgen.Scale(testgen.ScaleOptions{Seed: 1, Funcs: 600, Edit: -1})
	fe, err := driver.ParseSource("scale.c", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := driver.Config{Analysis: driver.PointsTo, Promote: true, Workers: workers, AnalysisCache: cache.NewStore()}
		if _, err := fe.Compile(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileScale measures the scale tier's cold compile without
// its front end.
func BenchmarkCompileScale(b *testing.B) {
	b.Run("serial", func(b *testing.B) { compileScale(b, 1) })
	b.Run("parallel", func(b *testing.B) { compileScale(b, 0) })
}

// BenchmarkParseScale measures the scale tier's front end alone —
// lexing, parsing, semantic analysis and IL generation of the
// 600-helper module (seed 1) — so -benchmem shows what irgen
// allocates.
func BenchmarkParseScale(b *testing.B) {
	src := testgen.Scale(testgen.ScaleOptions{Seed: 1, Funcs: 600, Edit: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := driver.ParseSource("scale.c", src); err != nil {
			b.Fatal(err)
		}
	}
}
