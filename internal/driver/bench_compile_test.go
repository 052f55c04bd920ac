package driver_test

import (
	"testing"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/bench"
	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/lexer"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/cc/token"
	"regpromo/internal/driver"
	"regpromo/internal/testgen"
)

// compileMatrix runs the paper's four measurement configurations over
// every suite program, forking each pipeline from a pre-parsed
// front-end artifact so the benchmark isolates the middle end (analysis
// + optimization + allocation). shared compiles each program's four
// configurations in one Frontend.CompileMatrix call, the way the
// rpbench matrix pays for them; otherwise each is compiled alone.
func compileMatrix(b *testing.B, workers int, shared bool) {
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
	for i := range configs {
		configs[i].Workers = workers
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if shared {
				if _, err := j.fe.CompileMatrix(configs, nil); err != nil {
					b.Fatalf("%s: %v", j.name, err)
				}
				continue
			}
			for _, cfg := range configs {
				if _, err := j.fe.Compile(cfg, nil); err != nil {
					b.Fatalf("%s: %v", j.name, err)
				}
			}
		}
	}
}

// BenchmarkCompileMatrix measures the full rpbench compile matrix:
// every suite program under all four paper configurations, each
// compiled alone (serial, parallel) and as one shared matrix per
// program (shared, on a one-worker pool like serial).
func BenchmarkCompileMatrix(b *testing.B) {
	b.Run("serial", func(b *testing.B) { compileMatrix(b, 1, false) })
	b.Run("parallel", func(b *testing.B) { compileMatrix(b, 0, false) })
	b.Run("shared", func(b *testing.B) { compileMatrix(b, 1, true) })
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

// BenchmarkFrontEndScale measures the scale tier's front end alone on
// the 600-helper module (seed 1), one layer per sub-benchmark, so
// -benchmem shows each layer's share. parse streams tokens from the
// lexer, so it includes lex; sema and irgen time only their own layer
// over a fresh parse (and check) made with the timer stopped.
func BenchmarkFrontEndScale(b *testing.B) {
	const name = "scale.c"
	src := testgen.Scale(testgen.ScaleOptions{Seed: 1, Funcs: 600, Edit: -1})
	parse := func(b *testing.B) *ast.File {
		f, err := parser.Parse(name, src)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	check := func(b *testing.B) *sema.Program {
		prog, err := sema.Check(parse(b))
		if err != nil {
			b.Fatal(err)
		}
		return prog
	}
	b.Run("lex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lx := lexer.New(name, src)
			for {
				t, err := lx.Next()
				if err != nil {
					b.Fatal(err)
				}
				if t.Kind == token.EOF {
					break
				}
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parse(b)
		}
	})
	b.Run("sema", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := parse(b)
			b.StartTimer()
			if _, err := sema.Check(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("irgen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			prog := check(b)
			b.StartTimer()
			if _, err := irgen.Generate(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompileTail times water, the suite program whose four
// compiles are the slowest of perfbench figures' matrix and so set its
// compile_ms.tail, from one parsed front end: once per paper
// configuration, then again at K=8, where every configuration spills.
// Register allocation is most of each promote cell; a CPU profile of
// the modref+promote cell shows its share of the tail.
func BenchmarkCompileTail(b *testing.B) {
	var water bench.Program
	for _, p := range bench.Suite() {
		if p.Name == "water" {
			water = p
		}
	}
	fe, err := driver.ParseSource(water.Name+".c", bench.Source(water))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{0, 8} {
		prefix := ""
		if k != 0 {
			prefix = "k8/"
		}
		for _, cfg := range driver.Configurations() {
			cfg.K = k
			name := prefix + cfg.Analysis.String()
			if cfg.Promote {
				name += "+promote"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := fe.Compile(cfg, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
