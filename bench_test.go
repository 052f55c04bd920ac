// Package regpromo's root benchmark harness regenerates every table
// and figure of Cooper & Lu, "Register Promotion in C Programs"
// (PLDI 1997), as Go benchmarks. Each BenchmarkFigure* target
// compiles and executes the packaged workload suite under the paper's
// configurations and reports the dynamic counts as benchmark metrics:
//
//	go test -bench=Figure5 -benchmem        # total operations table
//	go test -bench=Figure6 -benchmem        # stores table
//	go test -bench=Figure7 -benchmem        # loads table
//	go test -bench=Section33 -benchmem      # §3.3 pointer-promotion study
//
// Metrics use the pattern <program>/<analysis>: ops-without,
// ops-with, and pct-removed — the three columns of the paper's
// tables. The cmd/rpbench tool prints the same data as tables.
package regpromo_test

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
)

// TestNoRegressionAgainstBaseline guards the benchmark trajectory:
// when a recorded baseline exists (the newest BENCH_*.json in the repo
// root, written by `rpbench -json`), the current report must not
// regress more than 1% against it on any quantity bench.Compare gates
// (dynamic ops, loads and stores, promotions, spills, static pressure).
// With no baseline recorded the test is skipped — run
// `go run ./cmd/rpbench -json` to record one.
func TestNoRegressionAgainstBaseline(t *testing.T) {
	baseline, path, err := bench.BaselineBefore(".", "")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCH_*.json baseline recorded; run `go run ./cmd/rpbench -json`")
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("comparing against baseline %s (%s)", path, baseline.Timestamp)

	var programs []string
	for _, p := range baseline.Programs {
		programs = append(programs, p.Name)
	}
	current, err := bench.CollectReport(bench.Options{Programs: programs})
	if err != nil {
		t.Fatal(err)
	}
	if len(current.Programs) != len(programs) {
		t.Errorf("baseline lists %d programs, the suite has %d of them", len(programs), len(current.Programs))
	}
	cr := bench.Compare(baseline, current, 1.0)
	if len(cr.Regressions()) > 0 || cr.SkippedCells > 0 {
		t.Errorf("against %s:\n%s", path, cr.Format())
	}
}

// reportFigure runs the measurement matrix once per benchmark
// iteration and publishes each row's columns as metrics.
func reportFigure(b *testing.B, metric bench.Metric) {
	b.ReportAllocs()
	var fr *bench.FigureResult
	for i := 0; i < b.N; i++ {
		var err error
		fr, err = bench.RunFigures(bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range fr.Rows[metric] {
		key := row.Program + "/" + row.Analysis
		b.ReportMetric(float64(row.Without), key+":without")
		b.ReportMetric(float64(row.With), key+":with")
		b.ReportMetric(row.PercentRemoved(), key+":%removed")
	}
}

// BenchmarkFigure5TotalOperations regenerates the paper's Figure 5.
func BenchmarkFigure5TotalOperations(b *testing.B) {
	reportFigure(b, bench.TotalOps)
}

// BenchmarkFigure6Stores regenerates the paper's Figure 6.
func BenchmarkFigure6Stores(b *testing.B) {
	reportFigure(b, bench.Stores)
}

// BenchmarkFigure7Loads regenerates the paper's Figure 7.
func BenchmarkFigure7Loads(b *testing.B) {
	reportFigure(b, bench.Loads)
}

// BenchmarkSection33PointerPromotion reproduces the §3.3 comparison:
// what pointer-based promotion removes beyond scalar promotion, per
// program (fft should be the only significant success).
func BenchmarkSection33PointerPromotion(b *testing.B) {
	b.ReportAllocs()
	var scalar, ptr *bench.FigureResult
	for i := 0; i < b.N; i++ {
		var err error
		scalar, err = bench.RunFigures(bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ptr, err = bench.RunFigures(bench.Options{PointerPromotion: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	index := func(rows []bench.Row) map[string]bench.Row {
		out := map[string]bench.Row{}
		for _, r := range rows {
			if r.Analysis == "pointer" {
				out[r.Program] = r
			}
		}
		return out
	}
	s := index(scalar.Rows[bench.TotalOps])
	p := index(ptr.Rows[bench.TotalOps])
	for name, sr := range s {
		b.ReportMetric(float64(sr.With-p[name].With), name+":extra-ops-removed")
	}
}

// BenchmarkPerProgram times one full compile+execute cycle per suite
// program under the paper's principal configuration (MOD/REF with
// promotion), for tracking harness performance itself.
func BenchmarkPerProgram(b *testing.B) {
	for _, p := range bench.Suite() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := driver.Config{Analysis: driver.ModRef, Promote: true}
			var last *bench.Measurement
			for i := 0; i < b.N; i++ {
				m, err := bench.Measure(p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(last.Counts.Ops), "dynamic-ops")
		})
	}
}

// BenchmarkAblationDemotionStores measures the SkipUnwrittenStores
// refinement (DESIGN.md ablation): how many demotion stores the
// paper-faithful always-demote policy costs.
func BenchmarkAblationDemotionStores(b *testing.B) {
	b.ReportAllocs()
	total := int64(0)
	saved := int64(0)
	for i := 0; i < b.N; i++ {
		total, saved = 0, 0
		for _, p := range bench.Suite() {
			faithful, err := bench.Measure(p, driver.Config{Analysis: driver.ModRef, Promote: true})
			if err != nil {
				b.Fatal(err)
			}
			refined, err := bench.Measure(p, driver.Config{
				Analysis: driver.ModRef, Promote: true, SkipUnwrittenStores: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if refined.Output != faithful.Output {
				b.Fatalf("%s: ablation changed output", p.Name)
			}
			total += faithful.Counts.Stores
			saved += faithful.Counts.Stores - refined.Counts.Stores
		}
	}
	b.ReportMetric(float64(saved), "stores-saved")
	b.ReportMetric(100*float64(saved)/float64(total), "%of-stores")
}

// BenchmarkRegisterPressureSweep compiles water across register
// supplies, tracing how spills erode promotion's benefit (the §5
// register-pressure discussion as a curve rather than an anecdote).
func BenchmarkRegisterPressureSweep(b *testing.B) {
	var water bench.Program
	for _, p := range bench.Suite() {
		if p.Name == "water" {
			water = p
		}
	}
	for _, k := range []int{16, 24, 32, 48, 64, 96} {
		k := k
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var with, without *bench.Measurement
			for i := 0; i < b.N; i++ {
				var err error
				without, err = bench.Measure(water, driver.Config{Analysis: driver.ModRef, K: k})
				if err != nil {
					b.Fatal(err)
				}
				with, err = bench.Measure(water, driver.Config{Analysis: driver.ModRef, Promote: true, K: k})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(without.Counts.Ops-with.Counts.Ops), "ops-removed")
			b.ReportMetric(float64(with.Spilled), "spilled")
		})
	}
}

// BenchmarkThrottleAblation measures the §3.4 bin-packing throttle on
// the register-pressure programs: throttling should recover the
// baseline when promotion would only cause spilling.
func BenchmarkThrottleAblation(b *testing.B) {
	for _, name := range []string{"water", "mlink"} {
		var prog bench.Program
		for _, p := range bench.Suite() {
			if p.Name == name {
				prog = p
			}
		}
		b.Run(name, func(b *testing.B) {
			var plain, throttled *bench.Measurement
			for i := 0; i < b.N; i++ {
				var err error
				plain, err = bench.Measure(prog, driver.Config{Analysis: driver.ModRef, Promote: true})
				if err != nil {
					b.Fatal(err)
				}
				throttled, err = bench.Measure(prog, driver.Config{Analysis: driver.ModRef, Promote: true, Throttle: 32})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(plain.Counts.Loads), "loads-unthrottled")
			b.ReportMetric(float64(throttled.Counts.Loads), "loads-throttled")
			b.ReportMetric(float64(plain.Spilled), "spills-unthrottled")
			b.ReportMetric(float64(throttled.Spilled), "spills-throttled")
		})
	}
}

// BenchmarkInterpreter measures raw interpreter throughput, the
// substrate every figure rests on.
func BenchmarkInterpreter(b *testing.B) {
	src := `
int acc;
int main(void) {
	int i;
	for (i = 0; i < 100000; i++) acc = (acc + i) & 1048575;
	return acc & 127;
}`
	c, err := driver.CompileSource("loop.c", src, driver.Config{Analysis: driver.ModRef, Promote: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		res, err := c.Execute(interp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ops = res.Counts.Ops
	}
	b.ReportMetric(float64(ops), "dynamic-ops")
}
